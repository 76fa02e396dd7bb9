"""Tests for the benchmark's own code: span arithmetic, wrapping, checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qcradle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qcradle import chains, cli, dynamics, hubbard, spectral, tuner  # noqa: E402


def span(name, parent, start, end, counters=None, op=None):
    return [name, name.split(".")[0], op, parent, start, end, counters]


def test_self_time_on_synthetic_tree():
    # cli.main [0, 10] -> tuner.tune_double [1, 9] -> diagonalize [2, 3], peak [3, 7]
    #                                                  peak -> default_window [4, 5]
    spans = [
        span("cli.main", None, 0.0, 10.0),
        span("tuner.tune_double", 0, 1.0, 9.0, {"evals": 2, "improving": 1}),
        span("spectral.diagonalize", 1, 2.0, 3.0),
        span("dynamics.peak_transfer", 1, 3.0, 7.0, {"samples": 5, "scan_bytes": 80}),
        span("dynamics.default_window", 3, 4.0, 5.0),
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 1.0, 3.0, 1.0]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["tuner.self_s"] == 3.0
    assert m["spectral.diagonalize_s"] == 1.0
    assert m["spectral.diagonalize_ms_per_call"] == 1000.0
    assert m["dynamics.peak_transfer_s"] == 4.0  # inclusive of its child
    assert m["dynamics.peak_samples"] == 5
    assert m["tuner.improving_evals_ratio"] == 0.5
    assert set(m) | {"cli.csv_identical"} == set(run.PER_LAYER_UNITS)


def _lookup_sites():
    """(namespace description, key, value) for every module-level binding."""
    for mod in tracing.package_modules():
        for key, value in vars(mod).items():
            yield mod.__name__, key, value
            if isinstance(value, dict):
                for k, v in value.items():
                    yield f"{mod.__name__}.{key}", k, v


def test_every_lookup_site_resolves_to_the_wrapper():
    originals = {
        fn
        for layer in tracing.LAYERS
        for fn in tracing.public_functions(sys.modules[f"qcradle.{layer}"]).values()
    }
    with tracing.Tracer():
        # the sites named in the module docstrings, checked by hand
        for fn in (
            tuner.diagonalize, tuner.peak_transfer, tuner.edge_modified_chain,
            cli.compare_effective, cli.tune_double, cli.diagonalize, cli.evolution_grid,
            cli._COMMANDS["tune"], cli._COMMANDS["oracle"],
            hubbard.build_hamiltonian, hubbard.enumerate_basis, hubbard.evolve, hubbard.diagonalize,
            qcradle.peak_transfer, spectral.diagonalize, dynamics.peak_transfer,
        ):
            assert hasattr(fn, "__traced__"), fn
        missed = [
            f"{where}.{key}" for where, key, value in _lookup_sites()
            if not isinstance(value, dict) and _hashable_in(value, originals)
        ]
        assert missed == []
    # uninstall restores every original
    assert not any(hasattr(v, "__traced__") for _, _, v in _lookup_sites())
    assert cli._COMMANDS["tune"] is cli.cmd_tune


def _hashable_in(value, pool) -> bool:
    try:
        return value in pool
    except TypeError:
        return False


def test_traced_counts_reconcile_with_result_counters():
    with tracing.Tracer() as tr:
        result = tuner.tune_double(12, 1.0, 4)
        spans = tr.take()
        m = tracing.layer_metrics(spans)
        assert m["tuner.objective_evals"] == result.evaluations
        # one objective per evaluation, plus the final best-time recompute
        assert m["spectral.diagonalize_calls"] == result.evaluations + 1
        assert m["dynamics.peak_transfer_calls"] == result.evaluations + 1

        report = hubbard.compare_effective(
            hubbard.HubbardParams(M=4, t0=np.ones(3), t1=np.ones(3), U=50.0, U0=50.0, U1=50.0),
            np.linspace(0.0, 10.0, 3),
        )
        m = tracing.layer_metrics(tr.take())
        assert m["hubbard.basis_dim"] == report.basis_dim == 64
        assert m["dynamics.evolve_calls"] == 2 * 3

        rep = dynamics.peak_transfer(spectral.diagonalize(chains.uniform_chain(40, 1.0)))
        m = tracing.layer_metrics(tr.take())
        assert m["dynamics.peak_samples"] == rep.samples
        assert m["dynamics.scan_bytes_computed"] == rep.samples * 40 * 16


def test_compare_tolerates_round_off_and_flags_real_changes():
    ref = {"sha256": "a", "shape": [2, 1], "values": [[0.5], [2738.0]], "meta": {"tau_convention": "2t^2/U"}}
    same = {"sha256": "b", "shape": [2, 1], "values": [[0.5 + 1e-13], [2738.0]], "meta": {"tau_convention": "2t^2/U"}}
    assert workloads.compare(ref, same) == []
    for key, bad in (
        ("values", [[0.5 + 1e-6], [2738.0]]),
        ("values", [[0.5], [2739.0]]),
        ("shape", [3, 1]),
        ("meta", {"tau_convention": "t^2/U"}),
    ):
        problems = workloads.compare(ref, dict(same, **{key: bad}))
        assert problems and key in problems[0]


def test_bounce_pass_matches_the_reference(tmp_path):
    reference = workloads.load_reference()["bounce"]
    for op in workloads.WORKLOADS["bounce"]:
        d = workloads.op_dir(tmp_path, op)
        obs = op.observe(op.run(d), d)
        assert workloads.compare(reference[op.name], obs, op.name) == []
        assert workloads.csv_identical(reference[op.name], obs) == len(obs["csv"])
    # a perturbed probability changes the fingerprint beyond tolerance
    grid = tmp_path / "uniform_bounce" / "grid.csv"
    lines = grid.read_text().splitlines()
    t, j, p = lines[100].split(",")
    lines[100] = f"{t},{j},{float(p) + 1e-5!r}"
    grid.write_text("\n".join(lines) + "\n")
    obs = workloads.observe_cli(0, tmp_path / "uniform_bounce")
    assert workloads.compare(reference["uniform_bounce"], obs)
    assert workloads.csv_identical(reference["uniform_bounce"], obs) == 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bounce", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "run.py", "--workload", "bounce", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
