"""
In-memory span tracing of qcradle's public functions, from outside the package.

``Tracer.install`` wraps every public function defined in the six layer
modules (chains, spectral, dynamics, tuner, hubbard, cli).  The modules bind
their dependencies with ``from ... import``, so a wrapper has to replace the
name at every place it is looked up: each ``qcradle`` module namespace, the
package namespace, and module-level dicts such as ``cli._COMMANDS``.
Patching only the defining module would miss those calls.

A span records name, layer, the operation it ran under, its parent span,
start and end (``time.perf_counter``), and counters read from the call's
arguments and result after the end time is taken.  Spans stay in memory;
``layer_metrics`` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("chains", "spectral", "dynamics", "tuner", "hubbard", "cli")

# span record fields, in order
NAME, LAYER, OP, PARENT, START, END, COUNTERS = range(7)

# bytes of one complex128 sample of the n x M end-amplitude scan
SCAN_BYTES_PER_CELL = 16


def _improving(trace) -> int:
    """Evaluations in a tuner trace that raised the running best amplitude."""
    best, count = float("-inf"), 0
    for _, amp in trace:
        if amp > best:
            best, count = amp, count + 1
    return count


def _csv_counts(paths) -> dict:
    """Bytes, and lines after the '#' metadata line, of CSVs the cli wrote."""
    nbytes = rows = 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        nbytes += len(data)
        rows += data.count(b"\n") - 1
    return {"bytes": nbytes, "rows": rows}


def _tune_counts(result) -> dict:
    return {"evals": result.evaluations, "improving": _improving(result.trace)}


def _peak_counts(args, kwargs, result) -> dict:
    spectrum = args[0] if args else kwargs["spectrum"]
    return {
        "samples": result.samples,
        "scan_bytes": result.samples * spectrum.M * SCAN_BYTES_PER_CELL,
    }


# counters read after a call returns: qualified name -> f(args, kwargs, result)
COUNTER_READERS = {
    "dynamics.peak_transfer": _peak_counts,
    "dynamics.evolution_grid": lambda a, k, r: {"cells": int(r.prob.size)},
    "tuner.tune_single": lambda a, k, r: _tune_counts(r),
    "tuner.tune_double": lambda a, k, r: _tune_counts(r),
    "hubbard.enumerate_basis": lambda a, k, r: {"dim": r.dim},
    "hubbard.build_hamiltonian": lambda a, k, r: {"nnz": int(r.nnz)},
    # the files are read by layer_metrics, after the pass, so that reading
    # them does not count as time inside the calling cli.main span
    "cli.cmd_spectrum": lambda a, k, r: {"paths": list(r)},
    "cli.cmd_evolve": lambda a, k, r: {"paths": list(r)},
    "cli.cmd_tune": lambda a, k, r: {"paths": list(r)},
    "cli.cmd_oracle": lambda a, k, r: {"paths": list(r)},
}


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself, by name."""
    return {
        name: fn
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == module.__name__
    }


def package_modules() -> list:
    """Every loaded qcradle module, the package itself included."""
    importlib.import_module("qcradle.cli")
    return [m for n, m in sorted(sys.modules.items()) if n == "qcradle" or n.startswith("qcradle.")]


class Tracer:
    """Span recorder that wraps qcradle's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._wrappers: dict = {}  # original function -> wrapper
        self._patches: list = []  # (namespace, key, original), to undo

    def _wrap(self, fn, qualname: str):
        layer = qualname.split(".", 1)[0]
        counters = COUNTER_READERS.get(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [qualname, layer, self.op, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(record)
            stack.append(sid)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if counters is not None:
                record[COUNTERS] = counters(args, kwargs, result)
            return result

        wrapper.__traced__ = qualname
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for layer in LAYERS:
            mod = sys.modules[f"qcradle.{layer}"]
            for name, fn in public_functions(mod).items():
                self._wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        for mod in modules:
            for key, value in list(vars(mod).items()):
                self._patch(vars(mod), key, value)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._patch(value, k, v)

    def _patch(self, namespace: dict, key, value) -> None:
        try:
            wrapper = self._wrappers.get(value)
        except TypeError:  # unhashable value
            return
        if wrapper is not None:
            namespace[key] = wrapper
            self._patches.append((namespace, key, value))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()
        self._wrappers.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass, keyed as in BENCHMARK.json.

    Reads the CSVs the pass wrote, so call it before the next pass.
    """
    own = self_times(spans)

    def select(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def named(qualname):
        return select(lambda s: s[NAME] == qualname)

    def total(idx):
        return sum(spans[i][END] - spans[i][START] for i in idx)

    def count(idx, key):
        return sum(spans[i][COUNTERS][key] for i in idx if spans[i][COUNTERS])

    def self_of(idx):
        return sum(own[i] for i in idx)

    chains = select(lambda s: s[LAYER] == "chains")
    diag = named("spectral.diagonalize")
    peak = named("dynamics.peak_transfer")
    grid = named("dynamics.evolution_grid")
    evolve = named("dynamics.evolve")
    tune = named("tuner.tune_single") + named("tuner.tune_double")
    basis = named("hubbard.enumerate_basis")
    build = named("hubbard.build_hamiltonian")
    cli = select(lambda s: s[LAYER] == "cli")
    commands = select(lambda s: s[NAME].startswith("cli.cmd_"))

    diag_s = total(diag)
    evals = count(tune, "evals")
    cli_self = self_of(cli)
    written = _csv_counts(p for i in commands if spans[i][COUNTERS] for p in spans[i][COUNTERS]["paths"])
    cli_bytes = written["bytes"]
    return {
        "chains.build_calls": len(chains),
        "chains.build_s": total(chains),
        "spectral.diagonalize_calls": len(diag),
        "spectral.diagonalize_s": diag_s,
        "spectral.diagonalize_ms_per_call": 1e3 * diag_s / len(diag) if diag else 0.0,
        "dynamics.peak_transfer_calls": len(peak),
        "dynamics.peak_transfer_s": total(peak),
        "dynamics.peak_samples": count(peak, "samples"),
        "dynamics.scan_bytes_computed": count(peak, "scan_bytes"),
        "dynamics.evolution_grid_s": total(grid),
        "dynamics.grid_cells": count(grid, "cells"),
        "dynamics.evolve_calls": len(evolve),
        "dynamics.evolve_s": total(evolve),
        "tuner.objective_evals": evals,
        "tuner.self_s": self_of(select(lambda s: s[LAYER] == "tuner")),
        "tuner.improving_evals_ratio": count(tune, "improving") / evals if evals else 0.0,
        "hubbard.enumerate_basis_s": total(basis),
        "hubbard.basis_dim": count(basis, "dim"),
        "hubbard.build_hamiltonian_s": total(build),
        "hubbard.h_nnz": count(build, "nnz"),
        "hubbard.compare_self_s": self_of(named("hubbard.compare_effective")),
        "cli.main_calls": len(named("cli.main")),
        "cli.self_s": cli_self,
        "cli.bytes_written": cli_bytes,
        "cli.rows_written": written["rows"],
        "cli.write_mb_per_s": cli_bytes / 1e6 / cli_self if cli_self > 0 else 0.0,
    }


def per_op(spans, qualname: str, key: str) -> dict:
    """One counter of the spans named ``qualname``, summed per operation."""
    out: dict = {}
    for s in spans:
        if s[NAME] == qualname and s[COUNTERS]:
            out[s[OP]] = out.get(s[OP], 0) + s[COUNTERS][key]
    return dict(sorted(out.items(), key=lambda kv: str(kv[0])))
