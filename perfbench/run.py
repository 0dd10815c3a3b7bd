"""Layered screening benchmark for betscan.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload emit_all --profile

Run from the repository root.  The program is imported from ./src and the
CLI runs as `python -m betscan.cli`, so nothing needs installing; without
./src/betscan the benchmark exits with code 2 and prints no result.

Each workload writes seeded inputs, then repeats set-up and screen for
--seconds and reports the medians, scaled to a nominal host speed by a
reference task timed in the same run (reference.py).  Correctness checks
run after the timed part.  With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
--profile runs one iteration under cProfile and writes the top functions by
self time.  Scratch files, run records, spans and profiles go to
./.perfbench_work/.  perfbench/README.md says what each metric should move.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    genes: int
    samples: int
    planted_per_class: int
    mode: str = "exact"
    emit_all: bool = False
    cli: bool = False  # drive `betscan preprocess` + `betscan screen` subprocesses
    workers: int = 1


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "score_exact": Workload(1000, 1096, 4),
    "emit_all": Workload(400, 817, 4, emit_all=True),
    "cli_pipeline": Workload(600, 1096, 4, cli=True, workers=2),
    "permutation": Workload(20, 817, 1, mode="permutation", emit_all=True),
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_betscan() -> None:
    if not (SRC / "betscan" / "__init__.py").is_file():
        _fail(f"no betscan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import betscan

    if Path(betscan.__file__).resolve().parent != SRC / "betscan":
        _fail(f"imported betscan from {betscan.__file__}, not from {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], log: Path) -> tuple[int, float, int]:
    """Run `python -m betscan.cli args`; return (exit code, seconds, peak RSS in KiB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "betscan.cli", *args],
            stdout=fh, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median_run_id(tr, root_name: str) -> str | None:
    roots = sorted(
        (s["end"] - s["start"], s["run_id"])
        for s in tr.spans
        if s["name"] == root_name and s["parent"] is None
    )
    return roots[(len(roots) - 1) // 2][1] if roots else None


def environment(seed: int, wl_name: str, wl: Workload) -> dict:
    import numpy
    import scipy

    from betscan import __version__

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            git_sha = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            git_sha = ref
    return {
        "git_sha": git_sha,
        "betscan": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": wl_name,
        "shape": {"genes": wl.genes, "samples": wl.samples},
        "config": asdict(wl),
        "seed": seed,
    }


class Run:
    """One workload, one seed: inputs, timed loops, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        import numpy as np

        from betscan.screen import ScreenConfig

        import gen
        from checks import Checks
        from spans import Tracer

        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tr = Tracer(enabled=trace)
        self.ck = Checks()
        self.rng = np.random.default_rng([seed, 7])
        self.cfg = ScreenConfig(
            mode=self.wl.mode, emit_all=self.wl.emit_all,
            worker_count=self.wl.workers, seed=seed,
        )
        self.inputs = gen.generate(
            work / "input.tsv", seed, list(WORKLOADS).index(name),
            self.wl.genes, self.wl.samples, self.wl.planted_per_class, raw=self.wl.cli,
        )
        self.input_sha = sha(self.inputs.path)
        self.out = work / "run"
        self.out.mkdir()
        self.setup_s: list[float] = []
        self.screen_s: list[float] = []
        self.wall_s: list[float] = []
        self.write_s: list[float] = []
        self.traced: list[bool] = []
        self.output_shas: set[str] = set()
        self.iteration_s: list[float] = []
        self.ref_s: list[float] = []
        self.layer: dict[str, float] = {}
        self.min_iterations = 3
        self.started = time.perf_counter()

    # ------------------------------------------------------------ loop control

    def _more_iterations(self) -> bool:
        k = len(self.wall_s)
        floor = 2 * self.min_iterations if self.trace else self.min_iterations
        if k < floor:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + statistics.median(self.iteration_s) <= self.seconds

    def _iteration_tracer(self, k: int):
        # in a traced run every other iteration is untraced, so the tracing
        # overhead is measured in the same process on the same data
        from spans import Tracer

        traced = self.trace and k % 2 == 1
        self.tr.run_id = f"iteration-{k}"
        return (self.tr if traced else Tracer(enabled=False)), traced

    def _reference(self) -> None:
        from reference import reference_seconds

        self.ref_s.append(reference_seconds())

    def _record(self, traced: bool, setup: float, screen: float, wall: float) -> None:
        self.setup_s.append(setup)
        self.screen_s.append(screen)
        self.wall_s.append(wall)
        self.traced.append(traced)

    @property
    def speed_factor(self) -> float:
        """Scales this run's seconds to the nominal host speed."""
        from reference import NOMINAL_S

        return NOMINAL_S / statistics.median(self.ref_s)

    # ---------------------------------------------------------------- library

    def _setup_library(self, tr):
        from betscan.preprocess import load_matrix
        from betscan.screen import precompute_bitplanes, precompute_copulas

        # drop the previous iteration's data first, so that the peak RSS is
        # that of one set-up and screen
        self.matrix = self.planes = self.ranks = None
        with tr.span("preprocess.load_matrix"):
            self.matrix = load_matrix(self.inputs.path)
        with tr.span("screen.precompute_bitplanes"):
            self.planes = precompute_bitplanes(self.matrix, self.cfg.d1)
        if self.cfg.mode == "permutation":
            with tr.span("screen.precompute_copulas"):
                self.ranks = precompute_copulas(self.matrix)

    def run_library(self) -> None:
        from betscan.screen import screen_all_pairs, write_results_csv

        self.results_path = self.out / "results.csv"
        while self._more_iterations():
            tr, traced = self._iteration_tracer(len(self.wall_s))
            start = time.perf_counter()
            with tr.span("bench.iteration"):
                self._reference()
                t0 = time.perf_counter()
                self._setup_library(tr)
                t1 = time.perf_counter()
                self._reference()
                rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                t2 = time.perf_counter()
                with tr.span("screen.screen_all_pairs"):
                    results, summary = screen_all_pairs(
                        self.planes, self.matrix.gene_ids, self.cfg, self.ranks
                    )
                t3 = time.perf_counter()
                with tr.span("screen.write_results_csv"):
                    write_results_csv(results, self.results_path)
                t4 = time.perf_counter()
            self.iteration_s.append(t4 - start)
            self._record(traced, t1 - t0, t3 - t2, t4 - t2)
            self.write_s.append(t4 - t3)
            if len(self.wall_s) == 1:
                rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.layer["screen.rss_delta_mb"] = (rss_after - rss_before) / 1024.0
            del results
            self.ck.expect(
                summary.total_pairs == self.pairs, f"summary total_pairs {summary.total_pairs}"
            )
            self.output_shas.add(sha(self.results_path))
        self.peak_rss_mb = peak_rss_mb()
        self._reference()

    def parallel_library(self) -> None:
        from dataclasses import replace

        from betscan.screen import screen_all_pairs, write_results_csv

        self.tr.run_id = "parallel"
        with self.tr.span("bench.parallel"):
            cfg2 = replace(self.cfg, worker_count=2)
            t0 = time.perf_counter()
            with self.tr.span("screen.screen_all_pairs", workers=2):
                results, _ = screen_all_pairs(
                    self.planes, self.matrix.gene_ids, cfg2, self.ranks
                )
            t2 = time.perf_counter() - t0
            path = self.out / "results_2workers.csv"
            write_results_csv(results, path)
        t1 = statistics.median(self.screen_s)
        self.layer["screen.parallel_efficiency"] = t1 / (2.0 * t2)
        self._check_identical(path)

    # -------------------------------------------------------------------- cli

    def run_cli(self) -> None:
        # a child's peak RSS starts at the parent's peak (it is inherited
        # across fork and exec), so the parent stays small until the loop ends
        _, _, self.version_rss_kb = run_child(["--version"], self.work / "version.log")
        pre = self.work / "pre"
        self.matrix_path = pre / "matrix.tsv"
        self.results_path = self.out / "results.csv"
        pre_shas = set()
        self.child_rss_kb = []
        self.summary_s = []
        while self._more_iterations():
            tr, traced = self._iteration_tracer(len(self.wall_s))
            start = time.perf_counter()
            with tr.span("bench.iteration"):
                self._reference()
                with tr.span("cli.preprocess"):
                    code, setup, _ = run_child(
                        ["preprocess", str(self.inputs.path), "--out", str(pre),
                         "--seed", str(self.seed)],
                        self.work / "preprocess.log",
                    )
                self._check_cli(code, pre, "preprocess", self.input_sha)
                pre_shas.add(sha(self.matrix_path))
                self._reference()
                with tr.span("cli.screen", workers=self.wl.workers):
                    code, wall, rss_kb = self._screen_child(self.wl.workers, self.out)
            self.iteration_s.append(time.perf_counter() - start)
            self._record(traced, setup, wall, wall)
            self.child_rss_kb.append(rss_kb)
            self._check_cli(code, self.out, "screen", sha(self.matrix_path))
            summary = self._read_summary(self.out)
            self.summary_s.append(summary.get("wall_time_s", float("nan")))
            self.output_shas.add(sha(self.results_path))
        self.peak_rss_mb = peak_rss_mb()
        self._reference()
        self.ck.expect(len(pre_shas) == 1, "preprocess output identical across iterations")
        self._check_preprocess_report(pre / "preprocess_report.json")

    def _screen_child(self, workers: int, out: Path):
        return run_child(
            ["screen", str(self.matrix_path), "--out", str(out),
             "--workers", str(workers), "--seed", str(self.seed)],
            self.work / "screen.log",
        )

    def _read_summary(self, out: Path) -> dict:
        try:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            summary = {}
        self.ck.expect(
            summary.get("total_pairs") == self.pairs,
            f"summary.json total_pairs {summary.get('total_pairs')} != {self.pairs}",
        )
        return summary

    def _check_cli(self, code: int, out: Path, command: str, input_sha: str) -> None:
        from checks import check_manifest

        self.ck.expect(code == 0, f"betscan {command} exited {code}")
        check_manifest(self.ck, out, command, input_sha)

    def _check_preprocess_report(self, path: Path) -> None:
        report = json.loads(path.read_text(encoding="utf-8"))
        dropped = {d["gene"] for d in report["genes_dropped"]}
        self.ck.expect(dropped == self.inputs.dropped, "zero-heavy genes dropped")
        self.ck.expect(
            set(report["medians_reset"]) == self.inputs.spiked, "median spikes reset"
        )

    def parallel_cli(self) -> None:
        self.tr.run_id = "parallel"
        out1 = self.work / "run_1worker"
        with self.tr.span("bench.parallel"), self.tr.span("cli.screen", workers=1):
            code, _, _ = self._screen_child(1, out1)
        self._check_cli(code, out1, "screen", sha(self.matrix_path))
        t1 = self._read_summary(out1).get("wall_time_s", float("nan"))
        t2 = statistics.median(self.summary_s)
        self.layer["screen.parallel_efficiency"] = t1 / (2.0 * t2)
        self._check_identical(out1 / "results.csv")

    def _check_identical(self, path: Path) -> None:
        same = self.output_shas == {sha(path)}
        self.layer["screen.workers_identical"] = float(same)
        self.ck.expect(same, "results.csv identical for 1 and 2 workers")

    # ----------------------------------------------------------------- shared

    @property
    def pairs(self) -> int:
        g = len(self.inputs.gene_ids) - len(self.inputs.dropped)
        return g * (g - 1) // 2

    def check_outputs(self) -> None:
        from betscan.preprocess import load_matrix
        from betscan.screen import precompute_bitplanes

        from checks import SAMPLE_PAIRS, check_planted, check_rows, random_pairs, read_rows

        self.ck.expect(len(self.output_shas) == 1, "results.csv identical across iterations")
        rows = read_rows(self.ck, self.results_path)
        self.rows = rows
        if self.wl.cli:
            self.matrix = load_matrix(self.matrix_path)
            self.planes = precompute_bitplanes(self.matrix, self.cfg.d1)
        matrix = self.matrix
        index = {g: i for i, g in enumerate(matrix.gene_ids)}
        planted = [
            tuple(sorted((index[a], index[b]))) for a, b, _ in self.inputs.planted
        ]
        emitted = [] if self.cfg.emit_all else [(index[a], index[b]) for a, b in rows]
        pairs = sorted(
            random_pairs(self.rng, matrix.n_genes, SAMPLE_PAIRS) | set(planted) | set(emitted)
        )
        check_rows(self.ck, rows, matrix.gene_ids, self.planes, pairs, self.cfg, self.pairs)
        check_planted(self.ck, rows, index, self.inputs.planted, self.cfg.alpha)
        if self.cfg.emit_all:
            self.ck.expect(len(rows) == self.pairs, f"emit_all wrote {len(rows)} rows")

    def end_to_end(self) -> dict[str, float]:
        k = self.speed_factor
        return {
            "wall_s": statistics.median(self.wall_s) * k,
            "pairs_per_s": self.pairs / (statistics.median(self.screen_s) * k),
            "setup_s": statistics.median(self.setup_s) * k,
            "peak_rss_mb": self.peak_rss_mb,
            "pass_ratio": 1.0 - self.ck.failed / self.ck.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        from probes import REPS, probe_layers, timed

        from betscan.screen import read_results_csv, write_results_csv

        tr = self.tr
        if self.wl.cli:
            self.parallel_cli()
        else:
            self.parallel_library()
        tr.run_id = "probes"
        with tr.span("bench.probes"):
            m = probe_layers(
                tr, self.cfg, self.inputs.path, self.matrix, self.planes, self.rng, self.work
            )
            startup = []
            for _ in range(REPS):
                with tr.span("cli.version"):
                    startup.append(run_child(["--version"], self.work / "version.log")[1])
            m["cli.startup_s"] = statistics.median(startup)
            if self.wl.cli:
                # the write happens inside the screen process; time it here
                # on the rows that process wrote
                rows = read_results_csv(self.results_path)
                m["screen.write_s"], _ = timed(
                    tr, "screen.write_results_csv",
                    lambda: write_results_csv(rows, self.work / "probe.csv"), REPS,
                )
        if self.wl.cli:
            score = statistics.median(self.summary_s)
            m["screen.rss_delta_mb"] = (
                statistics.median(self.child_rss_kb) - self.version_rss_kb
            ) / 1024.0
        else:
            score = statistics.median(self.screen_s)
            m["screen.write_s"] = statistics.median(self.write_s)
        m.update(self.layer)
        methods = [r["method"] for r in self.rows.values()]
        m.update({
            "screen.score_s": score,
            "screen.us_per_pair": score / self.pairs * 1e6,
            "screen.pairs": self.pairs,
            "screen.rows_emitted": len(self.rows),
            "screen.emit_ratio": len(self.rows) / self.pairs,
            "screen.bytes_written": self.results_path.stat().st_size,
            "nulls.method_mix.hypergeometric": methods.count("hypergeometric"),
            "nulls.method_mix.normal_approx": methods.count("normal_approx"),
            "nulls.method_mix.permutation": methods.count("permutation"),
            "trace.overhead_s": self.speed_factor * (
                statistics.median(w for w, t in zip(self.wall_s, self.traced) if t)
                - statistics.median(w for w, t in zip(self.wall_s, self.traced) if not t)
            ),
            "host.reference_s": statistics.median(self.ref_s),
        })
        run_ids = {median_run_id(tr, "bench.iteration"), "probes"}
        for layer, seconds in tr.self_times(run_ids).items():
            m[f"self.{layer}_s"] = seconds
        return m

    def execute(self) -> dict[str, float]:
        if self.wl.cli:
            self.run_cli()
        else:
            self.run_library()
        self.check_outputs()
        metrics = self.per_layer() if self.trace else self.end_to_end()
        return metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    units = declared_metrics(trace)
    WORK.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        run = Run(name, seed, seconds, trace, work)
        metrics = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        _fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    if trace:
        run.tr.dump(WORK / f"spans-{tag}.json")
    record = {
        "environment": environment(seed, name, run.wl),
        "pairs": run.pairs,
        "raw_samples": {
            "setup_s": run.setup_s,
            "screen_s": run.screen_s,
            "wall_s": run.wall_s,
            "reference_s": run.ref_s,
        },
        "speed_factor": run.speed_factor,
        "checks": {"attempted": run.ck.attempted, "failed": run.ck.failed},
        "metrics": metrics,
    }
    (WORK / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for key in sorted(metrics):
        print(f"{name:14s} {key:34s} {metrics[key]:.6g} {units[key]}")
    result = {
        "correct": run.ck.failed == 0,
        "attempted": run.ck.attempted,
        "failed": run.ck.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process; one JSON object per workload."""
    combined = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def profile(name: str, seed: int) -> int:
    """One set-up and one screen iteration under cProfile, in this process."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"profile-{name}-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(name, seed, 0.0, False, work)
        prof = cProfile.Profile()
        if run.wl.cli:
            from betscan.cli import main

            pre = work / "pre"
            prof.runcall(main, ["preprocess", str(run.inputs.path), "--out", str(pre),
                                "--seed", str(seed)])
            # the pool's workers are not profiled, so profile one worker
            prof.runcall(main, ["screen", str(pre / "matrix.tsv"), "--out", str(run.out),
                                "--workers", "1", "--seed", str(seed)])
        else:
            run.min_iterations = 1
            prof.runcall(run.run_library)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = WORK / f"profile-{name}-seed{seed}.txt"
    with open(path, "w", encoding="utf-8") as fh:
        pstats.Stats(prof, stream=fh).sort_stats("tottime").print_stats(30)
    print(path.read_text())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="profile one iteration with cProfile instead of timing")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _import_betscan()
    if args.workload == "all":
        if args.profile:
            parser.error("--profile needs a single workload")
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.profile:
        return profile(args.workload, args.seed)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
