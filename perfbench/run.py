"""
qcradle benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every metric, by name

A run is one fresh process for one workload (tune, transfer, oracle or
bounce).  It pins BLAS and OpenMP to one thread before numpy loads, then runs
passes over the workload's operation list, a closed loop of sequential calls,
until the next pass would end after ``--seconds``.  Every operation's output
is checked against ``reference.json`` after its pass, outside the timing.

With ``--trace 0`` an untimed warm-up pass comes first, then the end-to-end
metrics are reported: ``wall_s`` (median pass time), ``setup_s`` (median time
from interpreter start until ``qcradle.cli`` and numpy/scipy are imported,
over fresh interpreters) and ``peak_rss_mb`` (``ru_maxrss`` of this process).
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics (medians over traced passes) are reported; the spans and the tracing
overhead are written to ``perfbench/out/``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit code 0 when the run completed (failed operations are counted, not
fatal), 2 when the program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("tune", "transfer", "oracle", "bounce")

# single-threaded BLAS/OpenMP: with the default two-thread OpenBLAS pool a
# 64x64 eigh stalls in some processes (48 ms against 0.5 ms)
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

SETUP_SAMPLES = 7
SETUP_PROBE = (
    "import time\n"
    "import qcradle.cli\n"
    "print(time.monotonic_ns())\n"
)
CHILD_TIMEOUT_S = 170
# per-workload environment: the cap multiplier lets the M=7 oracle (basis
# dim 2499) pass the CLI caps
WORKLOAD_ENV = {"oracle": {"QCRADLE_COMPUTE_CAP": "2"}}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "chains.build_calls": "count",
    "chains.build_s": "s",
    "spectral.diagonalize_calls": "count",
    "spectral.diagonalize_s": "s",
    "spectral.diagonalize_ms_per_call": "ms",
    "dynamics.peak_transfer_calls": "count",
    "dynamics.peak_transfer_s": "s",
    "dynamics.peak_samples": "count",
    "dynamics.scan_bytes_computed": "B",
    "dynamics.evolution_grid_s": "s",
    "dynamics.grid_cells": "count",
    "dynamics.evolve_calls": "count",
    "dynamics.evolve_s": "s",
    "tuner.objective_evals": "count",
    "tuner.self_s": "s",
    "tuner.improving_evals_ratio": "ratio",
    "hubbard.enumerate_basis_s": "s",
    "hubbard.basis_dim": "count",
    "hubbard.build_hamiltonian_s": "s",
    "hubbard.h_nnz": "count",
    "hubbard.compare_self_s": "s",
    "cli.main_calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.rows_written": "count",
    "cli.write_mb_per_s": "MB/s",
    "cli.csv_identical": "count",
}


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median time from interpreter start until qcradle.cli is imported.

    Both clocks are CLOCK_MONOTONIC, so the child's reading after the import
    minus the parent's reading before the spawn is the set-up time.  One
    untimed launch first fills the bytecode cache, which users do not pay on
    every invocation.
    """
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(samples + 1):
        t0 = time.monotonic_ns()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append((int(out.stdout.split()[-1]) - t0) / 1e9)
    return statistics.median(times)


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qcradle").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def threads_in_process() -> int | None:
    try:
        with open(f"/proc/{os.getpid()}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_PINS},
        "threads_in_process": threads_in_process(),
    }


class Runner:
    """Runs passes of one workload and checks every operation's output."""

    def __init__(self, workload: str, seed: int, outdir: Path):
        import workloads

        self.w = workloads
        self.ops = workloads.WORKLOADS[workload]
        self.reference = workloads.load_reference()[workload]
        self.rng = random.Random(seed)
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.csv_identical: list[int] = []

    def run_pass(self, tracer=None) -> float:
        """One pass in seeded order; returns its wall time.  Checks follow it."""
        order = list(self.ops)
        self.rng.shuffle(order)
        dirs = [self.w.op_dir(self.outdir, op) for op in order]
        results = []
        t0 = time.perf_counter()
        for op, d in zip(order, dirs):
            if tracer is not None:
                tracer.op = op.name
            try:
                results.append(op.run(d))
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        identical = 0
        for op, d, res in zip(order, dirs, results):
            self.attempted += 1
            problems, obs = self.check(op, d, res)
            if problems:
                self.failed += 1
                print(f"FAIL {op.name}: {problems[:3]}", file=sys.stderr)
            else:
                identical += self.w.csv_identical(self.reference[op.name], obs)
        self.csv_identical.append(identical)
        return wall

    def check(self, op, d: Path, res) -> tuple[list[str], dict | None]:
        """Mismatches of one operation's output, and the observed record."""
        if isinstance(res, Exception):
            return ["".join(traceback.format_exception_only(type(res), res)).strip()], None
        try:
            obs = op.observe(res, d)
        except Exception as exc:  # unreadable output is a failed check
            return [f"cannot read output: {exc!r}"], None
        return self.w.compare(self.reference[op.name], obs, op.name), obs


def run_workload(args) -> dict:
    os.environ.update(THREAD_PINS)
    os.environ.update(WORKLOAD_ENV.get(args.workload, {}))
    setup_s = measure_setup() if not args.trace else None

    sys.path.insert(0, str(SRC))
    import tracing

    prov = provenance()
    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(args.workload, args.seed, outdir)
        start = time.perf_counter()

        def budget_left(last: float) -> bool:
            return time.perf_counter() - start + last <= args.seconds

        if not args.trace:
            runner.run_pass()  # warm-up: checked, not timed
            walls = []
            while True:
                t = time.perf_counter()
                walls.append(runner.run_pass())
                if not budget_left(time.perf_counter() - t):
                    break
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units, extra = END_TO_END_UNITS, {"passes": len(walls), "pass_walls_s": walls}
        else:
            # alternate untraced and traced passes; the overhead compares medians
            tracer = tracing.Tracer()
            untraced, traced, per_pass, spans = [], [], [], []
            while True:
                t = time.perf_counter()
                if len(untraced) == len(traced):
                    untraced.append(runner.run_pass())
                else:
                    with tracer:
                        traced.append(runner.run_pass(tracer))
                    pass_spans = tracer.take()
                    m = tracing.layer_metrics(pass_spans)
                    m["cli.csv_identical"] = runner.csv_identical[-1]
                    per_pass.append(m)
                    spans.append(pass_spans)
                if traced and not budget_left(time.perf_counter() - t):
                    break
            metrics = {k: statistics.median(p[k] for p in per_pass) for k in PER_LAYER_UNITS}
            overhead = statistics.median(traced) - statistics.median(untraced)
            extra = {
                "passes": len(traced),
                "untraced_wall_s": untraced,
                "traced_wall_s": traced,
                "trace_overhead_s": overhead,
                "tuner_evals": (tracing.per_op(spans[0], "tuner.tune_double", "evals")
                                | tracing.per_op(spans[0], "tuner.tune_single", "evals")),
                "basis_dims": tracing.per_op(spans[0], "hubbard.enumerate_basis", "dim"),
            }
            units = PER_LAYER_UNITS
            dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            with open(dump, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "provenance": prov,
                           **extra, "fields": ["name", "layer", "op", "parent", "start", "end", "counters"],
                           "passes_spans": spans}, fh)
            extra["spans_file"] = str(dump.relative_to(ROOT))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for k, v in extra.items():
        print(f"{k} {v}")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    error_rate = runner.failed / runner.attempted
    print(f"error_rate {error_rate:.6g} ratio ({runner.failed} of {runner.attempted} operations)")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    rc = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rc = rc or (0 if result["correct"] else 1)
            rate = result["failed"] / result["attempted"]
            print(f"{workload:9s} {'error_rate':34s} {rate:<14.6g} ratio "
                  f"({result['failed']} of {result['attempted']})")
            for name, m in result["metrics"].items():
                print(f"{workload:9s} {name:34s} {m['value']:<14.6g} {m['unit']}")
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "qcradle" / "__init__.py").is_file():
        print(f"qcradle sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args)
    except (ImportError, subprocess.CalledProcessError) as exc:
        print(f"cannot load qcradle: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
