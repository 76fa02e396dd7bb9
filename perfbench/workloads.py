"""
The four benchmark workloads, their operations and the output checks.

A workload is a fixed list of operations.  One pass runs each operation once,
in an order drawn from the run's seed; the inputs themselves are fixed,
because every output is compared with reference values captured from the
same inputs (``reference.json``).  Each operation writes into its own
directory, so a pass leaves every output on disk for the checks that follow
it.

Outputs are observed as plain records (``observe_*``) and compared with the
reference at a stated tolerance (``compare``): strings and integers exactly,
floats to ``ATOL + RTOL * |reference|``.  CSV byte identity is recorded
separately, as a count, so a round-off change shows without failing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qcradle import chains, cli, dynamics, spectral

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "demos" / "configs"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

ATOL = 1e-9
RTOL = 1e-9
# CSVs up to this many data rows are compared value by value; larger ones
# through per-column fingerprints.
FULL_VALUES_ROWS = 64


@dataclass(frozen=True)
class Op:
    """One operation of a workload: ``run(outdir)`` returns what ``observe`` reads."""

    name: str
    run: Callable[[Path], Any]
    observe: Callable[[Any, Path], dict]


def _cli(*argv: str) -> Callable[[Path], int]:
    def run(outdir: Path) -> int:
        # cli.main prints the written paths; keep stdout for the result line
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*argv, "--out", str(outdir)])

    return run


def _transfer(kind: str, M: int) -> Callable[[Path], Any]:
    def run(outdir: Path):
        if kind == "uniform":
            spec = chains.uniform_chain(M, 1.0)
        elif kind == "pst":
            spec = chains.pst_chain(M, 1.0)
        else:
            spec = chains.edge_modified_chain(M, 1.0, 0.5, 0.8)
        return dynamics.peak_transfer(spectral.diagonalize(spec))

    return run


def _fingerprint(column: np.ndarray) -> list[float]:
    """Sum and a position-weighted sum of one CSV column."""
    w = 1.0 + (np.arange(column.size) * 0.6180339887498949) % 1.0
    return [float(column.sum()), float(w @ column)]


def observe_csv(path: Path) -> dict:
    """Comparable record of one CSV written by the cli."""
    data = path.read_bytes()
    meta, rest = data.split(b"\n", 1)
    header = None
    if rest[:1].isalpha():
        header, rest = rest.split(b"\n", 1)
    values = np.loadtxt(io.BytesIO(rest), delimiter=",", ndmin=2)
    fields = dict(f.split("=", 1) for f in meta.decode().lstrip("# ").split() if "=" in f)
    record = {
        "sha256": hashlib.sha256(data).hexdigest(),
        "header": header.decode() if header is not None else None,
        "shape": list(values.shape),
        # the metadata fields that carry results rather than settings
        "meta": {k: fields[k] for k in ("tau_convention", "basis_dim") if k in fields},
    }
    if values.shape[0] <= FULL_VALUES_ROWS:
        record["values"] = values.tolist()
    else:
        record["fingerprint"] = [_fingerprint(values[:, j]) for j in range(values.shape[1])]
    return record


def observe_cli(rc: int, outdir: Path) -> dict:
    return {
        "exit_code": rc,
        "csv": {p.name: observe_csv(p) for p in sorted(outdir.glob("*.csv"))},
    }


def observe_transfer(report, outdir: Path) -> dict:
    return {"peak_amplitude": report.peak_amplitude}


def _tune(mode: str) -> Op:
    argv = ["tune", "--config", str(CONFIGS / "tune_two_bond.ini")]
    if mode == "single":
        argv += ["--override", "tune.mode=single"]
    return Op(f"tune_{mode}", _cli(*argv), observe_cli)


def _oracle(M: int) -> Op:
    argv = ["oracle", "--config", str(CONFIGS / "oracle_m4.ini"), "--override", f"hubbard.m={M}"]
    return Op(f"oracle_m{M}", _cli(*argv), observe_cli)


def _bounce(command: str, config: str) -> Op:
    return Op(config, _cli(command, "--config", str(CONFIGS / f"{config}.ini")), observe_cli)


WORKLOADS: dict[str, list[Op]] = {
    "tune": [_tune("double"), _tune("single")],
    "transfer": [
        Op(f"{kind}_m{M}", _transfer(kind, M), observe_transfer)
        for M in (500, 2000)
        for kind in ("uniform", "pst", "two_bond")
    ],
    "oracle": [_oracle(M) for M in (4, 5, 6, 7)],
    "bounce": [
        _bounce("evolve", "uniform_bounce"),
        _bounce("evolve", "trap_bounce"),
        _bounce("spectrum", "trap_spectrum"),
    ],
}


def compare(ref, obs, where: str = "") -> list[str]:
    """Mismatches between a reference record and an observed one.

    ``sha256`` entries are skipped: byte identity is counted, not checked.
    """
    if isinstance(ref, dict) and isinstance(obs, dict):
        if ref.keys() != obs.keys():
            return [f"{where}: keys {sorted(obs)} != reference {sorted(ref)}"]
        out = []
        for k in ref:
            if k != "sha256":
                out += compare(ref[k], obs[k], f"{where}.{k}")
        return out
    if isinstance(ref, list) and isinstance(obs, list):
        if len(ref) != len(obs):
            return [f"{where}: length {len(obs)} != reference {len(ref)}"]
        return [m for i, (r, o) in enumerate(zip(ref, obs)) for m in compare(r, o, f"{where}[{i}]")]
    if isinstance(ref, float) and isinstance(obs, (int, float)) and not isinstance(obs, bool):
        if abs(obs - ref) <= ATOL + RTOL * abs(ref):
            return []
        return [f"{where}: {obs!r} != reference {ref!r}"]
    if type(ref) is not type(obs) or ref != obs:
        return [f"{where}: {obs!r} != reference {ref!r}"]
    return []


def csv_identical(ref: dict, obs: dict) -> int:
    """Count of observed CSVs whose bytes hash to the reference's."""
    ref_csv, obs_csv = ref.get("csv", {}), obs.get("csv", {})
    return sum(
        1 for name, rec in obs_csv.items() if name in ref_csv and ref_csv[name]["sha256"] == rec["sha256"]
    )


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def op_dir(base: Path, op: Op) -> Path:
    path = base / op.name
    os.makedirs(path, exist_ok=True)
    return path
