"""
Command-line front end: INI-style run configs in, deterministic CSV out.

Subcommands
-----------
spectrum   eigenvalues (and optional state overlaps)      -> spectrum.csv
evolve     site-probability grid on a uniform time grid   -> grid.csv, grid_matrix.csv
tune       boundary-coupling optimization                 -> tune.csv, tune_best.csv
oracle     exact Bose-Hubbard vs effective-chain check    -> oracle.csv

Each subcommand takes ``--config <path>`` and ``--out <dir>``; repeated
``--override section.key=value`` flags patch the config after parsing.  The
config is a flat sectioned key-value file ([chain], [state], [evolve],
[tune], [hubbard], [output]); validation rejects unknown keys and reports
the offending key by name.  Every CSV starts with a single '#' metadata line
recording the tool version, a hash of the resolved config, and the defaults
in effect, so output files are self-describing and byte-identical across
reruns.  Exit codes: 0 success, 2 config validation, 3 compute cap, 4 I/O.

The QCRADLE_COMPUTE_CAP environment variable scales every size cap (grid
cells, basis states, dense-evolution dimension, oracle lattice length) by a
positive factor.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .chains import (
    ChainSpec,
    DEFAULT_TRAP_SIGN,
    WaveState,
    edge_modified_chain,
    gaussian_trap_chain,
    gaussian_wavepacket,
    kick_state,
    pst_chain,
    uniform_chain,
)
from .dynamics import (
    GRID_CELL_CAP,
    PEAK_COARSE_STEP,
    PEAK_TIME_TOL,
    PEAK_WINDOW_FACTOR,
    evolution_grid,
)
from .errors import TooLargeError
from .hubbard import (
    BASIS_STATE_CAP,
    EVOLVE_DIM_CAP,
    HubbardParams,
    compare_effective,
)
from .spectral import diagonalize, mode_overlaps
from .tuner import tune_double, tune_single

ORACLE_M_CAP = 5
ENV_CAP = "QCRADLE_COMPUTE_CAP"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


# required/optional keys per chain kind
_CHAIN_KEYS = {
    "uniform": ({"m", "tau"}, set()),
    "pst": ({"m", "tau"}, set()),
    "edge": ({"m", "tau", "x"}, set()),
    "two-bond": ({"m", "tau", "x", "y"}, set()),
    "gaussian-trap": ({"m", "tau", "center", "width"}, {"sign"}),
    "custom": ({"m", "tau"}, {"eps"}),
}
_STATE_KEYS = {
    "kick": ({"site"}, set()),
    "gaussian": ({"center", "width"}, set()),
}


def _caps() -> dict:
    factor = 1.0
    raw = os.environ.get(ENV_CAP)
    if raw is not None:
        try:
            factor = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{ENV_CAP} must be a number, got {raw!r}") from exc
        if not factor > 0.0:
            raise ConfigError(f"{ENV_CAP} must be > 0")
    return {
        "grid_cells": int(GRID_CELL_CAP * factor),
        "basis_states": int(BASIS_STATE_CAP * factor),
        "evolve_dim": int(EVOLVE_DIM_CAP * factor),
        "oracle_m": int(ORACLE_M_CAP * factor),
    }


def parse_config(path: str, overrides=()) -> dict:
    """Read the INI-style config into {section: {key: raw string}}."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        cfg.setdefault(section.strip(), {})[key.strip()] = value.strip()
    return cfg


def _require_sections(cfg: dict, required: set[str], allowed: set[str]) -> None:
    for s in required:
        if s not in cfg:
            raise ConfigError(f"missing required section [{s}]")
    for s in cfg:
        if s not in allowed:
            raise ConfigError(f"unexpected section [{s}]")


def _check_keys(section: str, block: dict, required: set[str], optional: set[str]) -> None:
    for k in required:
        if k not in block:
            raise ConfigError(f"[{section}] is missing required key '{k}'")
    for k in block:
        if k not in required and k not in optional:
            raise ConfigError(f"[{section}] has unexpected key '{k}'")


def _get(block: dict, section: str, key: str, kind, default=None):
    if key not in block:
        if default is not None:
            return default
        raise ConfigError(f"[{section}] is missing required key '{key}'")
    raw = block[key]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind is list:
            return [float(v) for v in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"[{section}] key '{key}': cannot parse {raw!r}") from exc
    raise AssertionError(kind)


def build_chain(cfg: dict) -> tuple[ChainSpec, dict]:
    """ChainSpec from the [chain] block, plus metadata about choices made."""
    block = cfg.get("chain")
    if block is None:
        raise ConfigError("missing required section [chain]")
    kind = _get(block, "chain", "kind", str)
    if kind not in _CHAIN_KEYS:
        raise ConfigError(f"[chain] key 'kind': unknown kind {kind!r}")
    required, optional = _CHAIN_KEYS[kind]
    _check_keys("chain", block, required | {"kind"}, optional)
    M = _get(block, "chain", "m", int)
    meta: dict = {"chain": kind}
    try:
        if kind == "uniform":
            spec = uniform_chain(M, _get(block, "chain", "tau", float))
        elif kind == "pst":
            spec = pst_chain(M, _get(block, "chain", "tau", float))
        elif kind == "edge":
            spec = edge_modified_chain(M, _get(block, "chain", "tau", float), _get(block, "chain", "x", float))
        elif kind == "two-bond":
            spec = edge_modified_chain(
                M,
                _get(block, "chain", "tau", float),
                _get(block, "chain", "x", float),
                _get(block, "chain", "y", float),
            )
        elif kind == "gaussian-trap":
            sign = _get(block, "chain", "sign", int, default=DEFAULT_TRAP_SIGN)
            spec = gaussian_trap_chain(
                M,
                _get(block, "chain", "tau", float),
                _get(block, "chain", "center", float),
                _get(block, "chain", "width", float),
                sign,
            )
            meta["trap_sign"] = sign
        else:  # custom
            tau = _get(block, "chain", "tau", list)
            eps = _get(block, "chain", "eps", list, default=[0.0] * M)
            spec = ChainSpec(M=M, tau=np.asarray(tau), eps=np.asarray(eps))
    except ValueError as exc:
        raise ConfigError(f"[chain] invalid parameters: {exc}") from exc
    return spec, meta


def build_state(cfg: dict, M: int) -> WaveState:
    block = cfg["state"]
    kind = _get(block, "state", "kind", str)
    if kind not in _STATE_KEYS:
        raise ConfigError(f"[state] key 'kind': unknown kind {kind!r}")
    required, optional = _STATE_KEYS[kind]
    _check_keys("state", block, required | {"kind"}, optional)
    try:
        if kind == "kick":
            return kick_state(M, _get(block, "state", "site", int))
        return gaussian_wavepacket(
            M, _get(block, "state", "center", float), _get(block, "state", "width", float)
        )
    except ValueError as exc:
        raise ConfigError(f"[state] invalid parameters: {exc}") from exc


def _output_opts(cfg: dict, outdir: str | None) -> tuple[str, int]:
    block = cfg.get("output", {})
    _check_keys("output", block, set(), {"dir", "precision"})
    prec = _get(block, "output", "precision", int, default=17)
    if not 1 <= prec <= 17:
        raise ConfigError("[output] key 'precision': must lie in 1..17")
    directory = outdir if outdir is not None else block.get("dir", ".")
    return directory, prec


def _config_hash(cfg: dict) -> str:
    lines = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            lines.append(f"{section}.{key}={cfg[section][key]}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _fmt(value, precision: int) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), f".{precision}g")


def _write_csv(outdir: str, name: str, meta: str, header: list[str] | None, rows, precision: int) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=outdir, text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(meta + "\n")
            if header is not None:
                fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v, precision) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _meta(command: str, cfg: dict, caps: dict, extra: dict) -> str:
    fields = {
        "qcradle": __version__,
        "command": command,
        "config": _config_hash(cfg),
        "caps": "grid:{grid_cells},basis:{basis_states},dim:{evolve_dim},oracle_m:{oracle_m}".format(**caps),
    }
    fields.update(extra)
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items())


def cmd_spectrum(cfg: dict, outdir: str | None) -> list[str]:
    _require_sections(cfg, {"chain"}, {"chain", "state", "output"})
    spec, meta_extra = build_chain(cfg)
    directory, prec = _output_opts(cfg, outdir)
    spectrum = diagonalize(spec)
    header = ["n", "omega"]
    columns = [np.arange(1, spec.M + 1), spectrum.omega]
    if "state" in cfg:
        state = build_state(cfg, spec.M)
        header.append("overlap")
        columns.append(mode_overlaps(spectrum, state))
    meta_extra["precision"] = prec
    meta = _meta("spectrum", cfg, _caps(), meta_extra)
    rows = zip(*columns)
    return [_write_csv(directory, "spectrum.csv", meta, header, rows, prec)]


def cmd_evolve(cfg: dict, outdir: str | None) -> list[str]:
    _require_sections(cfg, {"chain", "state", "evolve"}, {"chain", "state", "evolve", "output"})
    spec, meta_extra = build_chain(cfg)
    state = build_state(cfg, spec.M)
    block = cfg["evolve"]
    _check_keys("evolve", block, {"t_max", "steps"}, set())
    t_max = _get(block, "evolve", "t_max", float)
    steps = _get(block, "evolve", "steps", int)
    directory, prec = _output_opts(cfg, outdir)
    caps = _caps()

    spectrum = diagonalize(spec)
    try:
        grid = evolution_grid(spectrum, state, t_max, steps, max_cells=caps["grid_cells"])
    except ValueError as exc:
        raise ConfigError(f"[evolve] invalid parameters: {exc}") from exc

    meta_extra.update({"row_sum_tol": "1e-09", "precision": prec})
    meta = _meta("evolve", cfg, caps, meta_extra)
    long_rows = (
        (grid.times[k], j + 1, grid.prob[k, j])
        for k in range(grid.times.size)
        for j in range(spec.M)
    )
    paths = [_write_csv(directory, "grid.csv", meta, ["t", "j", "prob"], long_rows, prec)]
    paths.append(_write_csv(directory, "grid_matrix.csv", meta, None, grid.prob, prec))
    return paths


def cmd_tune(cfg: dict, outdir: str | None) -> list[str]:
    _require_sections(cfg, {"chain", "tune"}, {"chain", "tune", "output"})
    block = cfg["tune"]
    _check_keys("tune", block, {"mode"}, {"points"})
    mode = _get(block, "tune", "mode", str)
    if mode not in ("single", "double"):
        raise ConfigError(f"[tune] key 'mode': must be 'single' or 'double', got {mode!r}")
    points = _get(block, "tune", "points", int, default=50)
    chain_block = cfg["chain"]
    if chain_block.get("kind") != "uniform":
        raise ConfigError("[chain] key 'kind': tune requires the uniform bulk chain")
    _check_keys("chain", chain_block, {"kind", "m", "tau"}, set())
    M = _get(chain_block, "chain", "m", int)
    tau = _get(chain_block, "chain", "tau", float)
    directory, prec = _output_opts(cfg, outdir)

    try:
        result = tune_single(M, tau, points) if mode == "single" else tune_double(M, tau, points)
    except ValueError as exc:
        raise ConfigError(f"[tune] invalid parameters: {exc}") from exc

    param_names = ["x"] if mode == "single" else ["x", "y"]
    extra = {
        "mode": mode,
        "grid_points": points,
        "window_factor": PEAK_WINDOW_FACTOR,
        "coarse_step": PEAK_COARSE_STEP,
        "time_tol": PEAK_TIME_TOL,
        "param_tol": "0.0001",
        "precision": prec,
    }
    meta = _meta("tune", cfg, _caps(), extra)
    trace_rows = (params + (amp,) for params, amp in result.trace)
    paths = [_write_csv(directory, "tune.csv", meta, param_names + ["amplitude"], trace_rows, prec)]
    best_row = [result.best_params + (result.best_amplitude, result.best_time, result.evaluations)]
    paths.append(
        _write_csv(
            directory,
            "tune_best.csv",
            meta,
            param_names + ["amplitude", "time", "evaluations"],
            best_row,
            prec,
        )
    )
    return paths


def cmd_oracle(cfg: dict, outdir: str | None) -> list[str]:
    _require_sections(cfg, {"hubbard"}, {"hubbard", "output"})
    block = cfg["hubbard"]
    _check_keys("hubbard", block, {"m", "t", "u", "t_max", "steps"}, {"u0", "u1", "nmax"})
    caps = _caps()
    M = _get(block, "hubbard", "m", int)
    if M > caps["oracle_m"]:
        raise ConfigError(
            f"[hubbard] key 'm': M={M} exceeds the oracle cap {caps['oracle_m']} "
            f"(set {ENV_CAP} to raise it)"
        )
    t = _get(block, "hubbard", "t", float)
    U = _get(block, "hubbard", "u", float)
    U0 = _get(block, "hubbard", "u0", float, default=U)
    U1 = _get(block, "hubbard", "u1", float, default=U)
    nmax = _get(block, "hubbard", "nmax", int, default=2)
    t_max = _get(block, "hubbard", "t_max", float)
    steps = _get(block, "hubbard", "steps", int)
    if steps < 2 or not t_max > 0.0:
        raise ConfigError("[hubbard] keys 't_max'/'steps': need t_max > 0 and steps >= 2")
    directory, prec = _output_opts(cfg, outdir)

    try:
        params = HubbardParams(M=M, t0=np.full(M - 1, t), t1=np.full(M - 1, t), U=U, U0=U0, U1=U1)
        report = compare_effective(
            params,
            np.linspace(0.0, t_max, steps),
            nmax=nmax,
            max_dim=caps["evolve_dim"],
        )
    except ValueError as exc:
        raise ConfigError(f"[hubbard] invalid parameters: {exc}") from exc

    extra = {
        "tau_convention": report.convention,
        "basis_dim": report.basis_dim,
        "nmax": nmax,
        "precision": prec,
    }
    meta = _meta("oracle", cfg, caps, extra)
    rows = zip(report.times, report.leakage, report.deviation)
    return [_write_csv(directory, "oracle.csv", meta, ["t", "leakage", "max_deviation"], rows, prec)]


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "tune": cmd_tune,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcradle",
        description="Quantum Newton's cradle chains: spectra, dynamics, tuning, exact benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default=None, help="output directory (default: [output] dir or '.')")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="patch a config entry; repeatable",
        )
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.override)
        paths = _COMMANDS[args.command](cfg, args.out)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TooLargeError as exc:
        print(f"compute cap: {exc} (set {ENV_CAP} to raise it)", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for p in paths:
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
