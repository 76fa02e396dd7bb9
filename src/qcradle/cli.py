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
[tune], [hubbard]).  Each section's keys are declared once, in an ordered
schema; [chain] and [state] pick theirs by ``kind`` from
``_CHAIN_KINDS``/``_STATE_KINDS``, which also hold each kind's builder.
Missing and unknown keys are reported by name, in declaration order.
``--out`` defaults to the working directory.  Two writers format a block
of rows at a time, integers as they are and floats with 17 significant
digits: ``_write_grid`` writes evolve's grid pair in one pass, formatting
each value once, and ``_write_csvs`` the tables of every other command.
Each command makes one writer call, and each writer one call of
``_replace_atomically``, which moves finished temp files onto their targets
with permissions that follow the umask, so a write that fails replaces none
of the command's files.  Every CSV starts with a single '#' metadata line
recording the tool version, a hash of the resolved config, and the defaults
in effect, so output files are self-describing and byte-identical across
reruns.  Exit codes: 0 success, 2 config validation, 3 compute cap, 4 I/O.

One table, ``_CAPS``, holds the size caps by their ``# caps=`` header names:
``grid`` (evolve grid cells), ``basis``, ``dim`` (the oracle's basis
dimension) and ``oracle_m`` (oracle lattice length).  QCRADLE_COMPUTE_CAP
scales each by a positive factor that keeps every cap finite; ``main`` reads
it once per run.  ``basis``, the default of ``enumerate_basis``, is recorded
only: no command enforces it.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .chains import (
    ChainSpec,
    DEFAULT_TRAP_SIGN,
    WaveState,
    _count,
    _real,
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
from .tuner import PARAM_TOL, tune_double, tune_single

ENV_CAP = "QCRADLE_COMPUTE_CAP"
_CAPS = {"grid": GRID_CELL_CAP, "basis": BASIS_STATE_CAP, "dim": EVOLVE_DIM_CAP, "oracle_m": 5}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


# A schema is an ordered {key: (parse, default)}; _REQUIRED marks a key that
# has no default.  Keys are checked and reported in this order.
_REQUIRED = object()


def _floats(raw: str) -> list[float]:
    return [float(v) for v in raw.replace(",", " ").split()]


_FLOAT = (float, _REQUIRED)  # a required float key
_KIND = {"kind": (str, _REQUIRED)}
_CHAIN = {**_KIND, "m": (int, _REQUIRED), "tau": _FLOAT}

# kind -> (schema, builder of the parsed keys); the builders look the
# constructors up by name at call time, so wrapping them from outside works
_CHAIN_KINDS = {
    "uniform": (_CHAIN, lambda m, tau: uniform_chain(m, tau)),
    "pst": (_CHAIN, lambda m, tau: pst_chain(m, tau)),
    "edge": ({**_CHAIN, "x": _FLOAT}, lambda m, tau, x: edge_modified_chain(m, tau, x)),
    "two-bond": (
        {**_CHAIN, "x": _FLOAT, "y": _FLOAT},
        lambda m, tau, x, y: edge_modified_chain(m, tau, x, y),
    ),
    "gaussian-trap": (
        {**_CHAIN, "center": _FLOAT, "width": _FLOAT, "sign": (int, DEFAULT_TRAP_SIGN)},
        lambda m, tau, center, width, sign: gaussian_trap_chain(m, tau, center, width, sign),
    ),
    "custom": (
        {**_CHAIN, "tau": (_floats, _REQUIRED), "eps": (_floats, None)},
        lambda m, tau, eps: ChainSpec(
            M=m, tau=np.asarray(tau), eps=np.asarray([0.0] * m if eps is None else eps)
        ),
    ),
}
_STATE_KINDS = {
    "kick": ({**_KIND, "site": (int, _REQUIRED)}, lambda M, site: kick_state(M, site)),
    "gaussian": (
        {**_KIND, "center": _FLOAT, "width": _FLOAT},
        lambda M, center, width: gaussian_wavepacket(M, center, width),
    ),
}
_EVOLVE = {"t_max": _FLOAT, "steps": (int, _REQUIRED)}
_TUNE = {"mode": (str, _REQUIRED), "points": (int, 50)}
_HUBBARD = {"m": (int, _REQUIRED), "t": _FLOAT, "u": _FLOAT, "nmax": (int, 2), **_EVOLVE}


def _caps() -> dict:
    factor = 1.0
    raw = os.environ.get(ENV_CAP)
    if raw is not None:
        try:
            factor = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{ENV_CAP} must be a number, got {raw!r}") from exc
        # a finite factor can still overflow the caps it scales
        if not 0.0 < factor * max(_CAPS.values()) < math.inf:
            raise ConfigError(f"{ENV_CAP} must be > 0 and keep every scaled cap finite")
    return {name: int(cap * factor) for name, cap in _CAPS.items()}


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
        # fold the key as the file's keys were folded; section names stay as given
        cfg.setdefault(section.strip(), {})[parser.optionxform(key.strip())] = value.strip()
    return cfg


def _require_sections(cfg: dict, required: tuple, optional: tuple) -> None:
    for s in required:
        if s not in cfg:
            raise ConfigError(f"missing required section [{s}]")
    for s in cfg:
        if s not in required + optional:
            raise ConfigError(f"unexpected section [{s}]")


def _read(cfg: dict, section: str, schema: dict) -> dict:
    """The keys of ``[section]`` parsed by ``schema``, defaults filled in."""
    block = cfg.get(section, {})
    for key, (_, default) in schema.items():
        if default is _REQUIRED and key not in block:
            raise ConfigError(f"[{section}] is missing required key '{key}'")
    for key in block:
        if key not in schema:
            raise ConfigError(f"[{section}] has unexpected key '{key}'")
    values = {}
    for key, (parse, default) in schema.items():
        raw = block.get(key)
        try:
            values[key] = default if raw is None else parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] key '{key}': cannot parse {raw!r}") from exc
    return values


def _build(cfg: dict, section: str, kinds: dict, *args):
    """Kind, parsed keys and built object of a ``[section]`` picked by its kind."""
    kind = cfg.get(section, {}).get("kind")
    if kind is not None and kind not in kinds:
        raise ConfigError(f"[{section}] key 'kind': unknown kind {kind!r}")
    # a missing kind is reported by reading the bare kind schema
    schema, builder = kinds.get(kind, (_KIND, None))
    values = _read(cfg, section, schema)
    del values["kind"]
    try:
        return kind, values, builder(*args, **values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] invalid parameters: {exc}") from exc


def build_chain(cfg: dict) -> tuple[ChainSpec, dict]:
    """ChainSpec from the [chain] block, plus metadata about choices made."""
    kind, values, spec = _build(cfg, "chain", _CHAIN_KINDS)
    meta: dict = {"chain": kind}
    if "sign" in values:
        meta["trap_sign"] = values["sign"]
    return spec, meta


def build_state(cfg: dict, M: int) -> WaveState:
    return _build(cfg, "state", _STATE_KINDS, M)[2]


def _config_hash(cfg: dict) -> str:
    lines = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            lines.append(f"{section}.{key}={cfg[section][key]}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


# values per `%` operation of _write_csvs and _write_grid; a block holds at least one row
_CHUNK_VALUES = 1 << 11


def _replace_atomically(outdir: str, names: list[str], write) -> list[str]:
    """Call ``write`` with one open text file per name, each a temp file in
    ``outdir``; once it returns, give each file the umask's mode and move it
    onto ``outdir/name``.  If anything fails first, the temp files go and no
    target is touched."""
    os.makedirs(outdir, exist_ok=True)
    tmps = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for name in names:
                fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=outdir, text=True)
                tmps.append(tmp)
                fh = os.fdopen(fd, "w", encoding="utf-8", newline="\n")
                files.append(stack.enter_context(fh))
            write(*files)
        umask = os.umask(0)
        os.umask(umask)
        for tmp in tmps:
            os.chmod(tmp, 0o666 & ~umask)
        paths = [os.path.join(outdir, name) for name in names]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    return paths


def _write_csvs(outdir: str, meta: str, tables: dict) -> list[str]:
    """Atomically write each ``{name: (header, columns)}`` table as the CSV
    ``outdir/name``, all through one ``_replace_atomically`` call.  Equal-length
    1-D ``columns`` become rows, a block of rows per ``%`` operation: ``%d``
    for integer columns, ``%.17g`` for the rest."""

    def write(*files):
        for fh, (header, columns) in zip(files, tables.values()):
            columns = [np.asarray(c) for c in columns]
            row_fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
            width, n = len(columns), len(columns[0])
            rows = max(1, _CHUNK_VALUES // width)
            fh.write(meta + "\n" + ",".join(header) + "\n")
            for start in range(0, n, rows):
                stop = min(start + rows, n)
                values = [None] * (width * (stop - start))
                for k, c in enumerate(columns):
                    values[k::width] = c[start:stop].tolist()
                fh.write(row_fmt * (stop - start) % tuple(values))

    return _replace_atomically(outdir, list(tables), write)


def _write_grid(outdir: str, meta: str, times, prob) -> list[str]:
    """Atomically write the (T, M) site probabilities ``prob`` at ``times`` as
    ``grid.csv`` (rows t,j,prob) and ``grid_matrix.csv`` (row k is prob[k]),
    the bytes ``_write_csvs`` gives for them, formatting each value once."""
    T, M = prob.shape
    rows = max(1, _CHUNK_VALUES // M)
    row_fmt = ",".join(["%.17g"] * M) + "\n"
    # joined by a time string, these are that time's grid.csv rows
    pieces = [""] + [f",{j},%s\n" for j in range(1, M + 1)]

    def write(grid, matrix):
        grid.write(meta + "\nt,j,prob\n")
        matrix.write(meta + "\n")
        for start in range(0, T, rows):
            block = prob[start : start + rows]
            text = row_fmt * len(block) % tuple(block.ravel().tolist())
            matrix.write(text)
            values = text.replace("\n", ",").split(",")
            lines = [
                ("%.17g" % t).join(pieces) % tuple(values[k * M : (k + 1) * M])
                for k, t in enumerate(times[start : start + rows].tolist())
            ]
            grid.write("".join(lines))
            del text, values, lines  # free this block's strings before the next block's

    return _replace_atomically(outdir, ["grid.csv", "grid_matrix.csv"], write)


def _meta(command: str, cfg: dict, caps: dict, extra: dict) -> str:
    fields = {
        "qcradle": __version__,
        "command": command,
        "config": _config_hash(cfg),
        "caps": ",".join(f"{name}:{cap}" for name, cap in caps.items()),
    }
    fields.update(extra)
    fields["precision"] = 17  # the digits of every float value the writers write
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items())


def cmd_spectrum(cfg: dict, outdir: str, caps: dict) -> list[str]:
    _require_sections(cfg, ("chain",), ("state",))
    spec, meta_extra = build_chain(cfg)
    spectrum = diagonalize(spec)
    header = ["n", "omega"]
    columns = [np.arange(1, spec.M + 1), spectrum.omega]
    if "state" in cfg:
        state = build_state(cfg, spec.M)
        header.append("overlap")
        columns.append(mode_overlaps(spectrum, state))
    meta = _meta("spectrum", cfg, caps, meta_extra)
    return _write_csvs(outdir, meta, {"spectrum.csv": (header, columns)})


def cmd_evolve(cfg: dict, outdir: str, caps: dict) -> list[str]:
    _require_sections(cfg, ("chain", "state", "evolve"), ())
    spec, meta_extra = build_chain(cfg)
    state = build_state(cfg, spec.M)
    opts = _read(cfg, "evolve", _EVOLVE)

    spectrum = diagonalize(spec)
    try:
        grid = evolution_grid(spectrum, state, opts["t_max"], opts["steps"], max_cells=caps["grid"])
    except ValueError as exc:
        raise ConfigError(f"[evolve] invalid parameters: {exc}") from exc

    meta_extra["row_sum_tol"] = "1e-09"
    meta = _meta("evolve", cfg, caps, meta_extra)
    return _write_grid(outdir, meta, grid.times, grid.prob)


def cmd_tune(cfg: dict, outdir: str, caps: dict) -> list[str]:
    _require_sections(cfg, ("chain", "tune"), ())
    opts = _read(cfg, "tune", _TUNE)
    mode, points = opts["mode"], opts["points"]
    if mode not in ("single", "double"):
        raise ConfigError(f"[tune] key 'mode': must be 'single' or 'double', got {mode!r}")
    if cfg["chain"].get("kind") != "uniform":
        raise ConfigError("[chain] key 'kind': tune requires the uniform bulk chain")
    chain = _read(cfg, "chain", _CHAIN_KINDS["uniform"][0])
    M, tau = chain["m"], chain["tau"]

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
        "param_tol": PARAM_TOL,
    }
    meta = _meta("tune", cfg, caps, extra)
    params, amps = zip(*result.trace)
    best_row = result.best_params + (result.best_amplitude, result.best_time, result.evaluations)
    tables = {
        "tune.csv": (param_names + ["amplitude"], [*zip(*params), amps]),
        "tune_best.csv": (param_names + ["amplitude", "time", "evaluations"], [[v] for v in best_row]),
    }
    return _write_csvs(outdir, meta, tables)


def cmd_oracle(cfg: dict, outdir: str, caps: dict) -> list[str]:
    _require_sections(cfg, ("hubbard",), ())
    h = _read(cfg, "hubbard", _HUBBARD)
    M, t, U, t_max, steps = h["m"], h["t"], h["u"], h["t_max"], h["steps"]
    if M > caps["oracle_m"]:
        raise TooLargeError(f"[hubbard] key 'm': M={M} exceeds the oracle cap {caps['oracle_m']}")
    try:
        _real("t_max", t_max, 0.0)
        _count("steps", steps, 2)
        # lists: for M <= 0 np.full(M - 1, t) raises "negative dimensions" before _count names the rule
        params = HubbardParams(M=M, t0=[t] * (M - 1), t1=[t] * (M - 1), U=U, U0=U, U1=U)
        report = compare_effective(
            params,
            np.linspace(0.0, t_max, steps),
            nmax=h["nmax"],
            max_dim=caps["dim"],
        )
    except ValueError as exc:
        raise ConfigError(f"[hubbard] invalid parameters: {exc}") from exc

    extra = {
        "tau_convention": report.convention,
        "basis_dim": report.basis_dim,
        "nmax": h["nmax"],
    }
    meta = _meta("oracle", cfg, caps, extra)
    columns = [report.times, report.leakage, report.deviation]
    return _write_csvs(outdir, meta, {"oracle.csv": (["t", "leakage", "max_deviation"], columns)})


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
        p.add_argument("--out", default=".", help="output directory (default: '.')")
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
        paths = _COMMANDS[args.command](cfg, args.out, _caps())
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
