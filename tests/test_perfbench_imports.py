"""Every library name that perfbench imports exists.

perfbench imports some names that no other test does, so a deleted or
renamed one would otherwise show only when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

import betscan
from betscan import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def imported_names():
    """(module, name) of every betscan import in perfbench.

    name is None for a plain `import module`.
    """
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                if module.split(".")[0] == "betscan":
                    found += [(module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "betscan"
                ]
    return found


def test_perfbench_imports_exist():
    found = imported_names()
    assert ("betscan.cli", "main") in found
    assert ("betscan", "__version__") in found
    missing = []
    for module, name in found:
        loaded = importlib.import_module(module)  # raises when module is gone
        if name is not None and not hasattr(loaded, name):
            missing.append(f"{module}.{name}")
    assert missing == []
    assert callable(cli.main)
    assert isinstance(betscan.__version__, str)
