"""Every knob a user can turn, listed in one place.

A change that adds, removes or renames a command-line option, a
ScreenConfig field or an environment variable that the package reads
must edit the lists below in the same diff.
"""

import argparse
import dataclasses
import re
from pathlib import Path

from betscan.cli import build_parser
from betscan.screen import ScreenConfig

SRC = Path(__file__).resolve().parent.parent / "src"

OPTIONS = {
    "betscan": ["-h", "--help", "--version"],
    "preprocess": [
        "-h", "--help", "--out", "--format", "--labels", "--context", "--seed",
        "--zero-threshold", "--uq-target",
    ],
    "test": [
        "-h", "--help", "--format", "--depth", "--mode",
        "--permutation-iterations", "--seed", "--out",
    ],
    "screen": [
        "-h", "--help", "--out", "--format", "--depth", "--alpha", "--m-pairs",
        "--workers", "--mode", "--permutation-iterations", "--seed",
        "--bid-filter", "--emit-all", "--emit-all-bids",
    ],
    "network": [
        "-h", "--help", "--out", "--k", "--alpha", "--graph-format",
        "--bid-filter", "--min-degree",
    ],
    "compare": ["-h", "--help", "--class", "--out", "--depth", "--format"],
    "baselines": [
        "-h", "--help", "--out", "--format", "--alpha", "--m-pairs", "--depth",
        "--hoeffding-iterations", "--seed",
    ],
    "rerun": ["-h", "--help", "--out"],
}

SCREEN_CONFIG_FIELDS = [
    "d1", "d2", "alpha", "m_pairs", "bid_filter", "worker_count", "emit_all",
    "mode", "permutation_iterations", "seed",
]

ENVIRONMENT = ["BETSCAN_SEED"]


def _option_strings(parser: argparse.ArgumentParser) -> list[str]:
    return [flag for action in parser._actions for flag in action.option_strings]


def test_command_line_options_are_listed():
    parser = build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    found = {"betscan": _option_strings(parser)}
    found.update(
        (name, _option_strings(sub)) for name, sub in commands.choices.items()
    )
    assert found == OPTIONS


def test_screen_config_fields_are_listed():
    assert [f.name for f in dataclasses.fields(ScreenConfig)] == SCREEN_CONFIG_FIELDS


def test_environment_variables_read_are_listed():
    # every os.environ or getenv use must name its variable as a literal
    access = re.compile(r"\benviron\b|\bgetenv\b")
    named = re.compile(
        r"""(?:environ(?:\.get)?\s*[\[(]|getenv\s*\()\s*["']([^"']+)["']"""
    )
    uses, names = 0, set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        uses += len(access.findall(text))
        found = named.findall(text)
        names.update(found)
        uses -= len(found)
    assert uses == 0, "an environment read without a literal variable name"
    assert sorted(names) == ENVIRONMENT
