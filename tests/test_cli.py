import hashlib
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qcradle
from qcradle import (
    ChainSpec,
    diagonalize,
    edge_modified_chain,
    gaussian_trap_chain,
    kick_state,
    mode_overlaps,
    pst_chain,
    uniform_chain,
)
from qcradle import cli
from qcradle.cli import EXIT_CAP, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from qcradle.dynamics import GRID_CELL_CAP
from util import reference_csv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


UNIFORM3 = """
[chain]
kind = uniform
m = 3
tau = 1.0
"""

TRAP_WITH_STATE = """
[chain]
kind = gaussian-trap
m = 60
tau = 1.0
center = 30
width = 70

[state]
kind = gaussian
center = 12
width = 6
"""

EVOLVE = """
[chain]
kind = pst
m = 11
tau = 1.0

[state]
kind = kick
site = 1

[evolve]
t_max = 3.2
steps = 40
"""

TUNE_ONE_POINT = """
[chain]
kind = uniform
m = 12
tau = 1.0

[tune]
mode = single
points = 1
"""

ORACLE_M2 = """
[hubbard]
m = 2
t = 1.0
u = 40
t_max = 10
steps = 6
"""


def read_rows(path):
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        meta = fh.readline()
        assert meta.startswith("# qcradle=")
        for line in fh:
            if header is None:
                header = line.strip().split(",")
            else:
                rows.append(line.strip().split(","))
    return meta, header, rows


class TestSpectrumCommand:
    def test_uniform3_eigenvalues_roundtrip(self, tmp_path):
        cfg = write(tmp_path / "run.ini", UNIFORM3)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, header, rows = read_rows(tmp_path / "spectrum.csv")
        assert header == ["n", "omega"]
        got = np.array([float(r[1]) for r in rows])
        # 17 significant digits round-trip to the exact in-memory values
        assert np.array_equal(got, diagonalize(uniform_chain(3, 1.0)).omega)

    def test_single_site(self, tmp_path):
        cfg = write(tmp_path / "run.ini", UNIFORM3.replace("m = 3", "m = 1"))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, _, rows = read_rows(tmp_path / "spectrum.csv")
        assert len(rows) == 1

    def test_overlap_column_sums_to_one(self, tmp_path):
        cfg = write(tmp_path / "run.ini", TRAP_WITH_STATE)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        meta, header, rows = read_rows(tmp_path / "spectrum.csv")
        assert header == ["n", "omega", "overlap"]
        assert "trap_sign=-1" in meta
        total = sum(float(r[2]) for r in rows)
        assert abs(total - 1.0) < 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path / "run.ini", TRAP_WITH_STATE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["spectrum", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


# [chain] body of every chain kind, and the chain the library builds from it
CHAIN_KINDS = [
    pytest.param("kind = uniform\nm = 9\ntau = 0.7\n", uniform_chain(9, 0.7), id="uniform"),
    pytest.param("kind = pst\nm = 9\ntau = 0.7\n", pst_chain(9, 0.7), id="pst"),
    pytest.param(
        "kind = edge\nm = 9\ntau = 0.7\nx = 0.6\n", edge_modified_chain(9, 0.7, 0.6), id="edge"
    ),
    pytest.param(
        "kind = two-bond\nm = 9\ntau = 0.7\nx = 0.6\ny = 0.85\n",
        edge_modified_chain(9, 0.7, 0.6, 0.85),
        id="two-bond",
    ),
    pytest.param(
        "kind = gaussian-trap\nm = 9\ntau = 0.7\ncenter = 4\nwidth = 3\n",
        gaussian_trap_chain(9, 0.7, 4.0, 3.0),
        id="gaussian-trap",
    ),
    pytest.param(
        "kind = custom\nm = 4\ntau = 1.0, 0.5 0.8\neps = 0.1 -0.2 0 0.3\n",
        ChainSpec(M=4, tau=np.array([1.0, 0.5, 0.8]), eps=np.array([0.1, -0.2, 0.0, 0.3])),
        id="custom",
    ),
    pytest.param(
        "kind = custom\nm = 4\ntau = 1.0 0.5 0.8\n",
        ChainSpec(M=4, tau=np.array([1.0, 0.5, 0.8]), eps=np.zeros(4)),
        id="custom-no-eps",
    ),
]


@pytest.mark.parametrize("body, spec", CHAIN_KINDS)
def test_every_chain_kind_matches_the_library(tmp_path, body, spec):
    cfg = write(tmp_path / "run.ini", f"[chain]\n{body}\n[state]\nkind = kick\nsite = 1\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    _, header, rows = read_rows(tmp_path / "spectrum.csv")
    assert header == ["n", "omega", "overlap"]
    got = np.array(rows, dtype=float)
    ref = diagonalize(spec)
    assert np.array_equal(got[:, 1], ref.omega)
    assert np.array_equal(got[:, 2], mode_overlaps(ref, kick_state(spec.M, 1)))


def test_error_names_do_not_depend_on_hash_seed(tmp_path):
    # missing keys and sections are reported in declaration order
    two_bond = write(tmp_path / "two_bond.ini", "[chain]\nkind = two-bond\nm = 10\n")
    no_state = write(tmp_path / "no_state.ini", UNIFORM3)
    script = (
        "import sys; from qcradle.cli import main; "
        "main(['spectrum', '--config', sys.argv[1]]); main(['evolve', '--config', sys.argv[2]])"
    )
    src = str(Path(qcradle.__file__).resolve().parent.parent)
    for seed in ("0", "1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script, two_bond, no_state],
            env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
        )
        assert run.stderr.splitlines() == [
            "config error: [chain] is missing required key 'tau'",
            "config error: missing required section [state]",
        ], seed


class TestEvolveCommand:
    def test_grid_files(self, tmp_path):
        cfg = write(tmp_path / "run.ini", EVOLVE)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, header, rows = read_rows(tmp_path / "grid.csv")
        assert header == ["t", "j", "prob"]
        assert len(rows) == 40 * 11
        by_time = {}
        for t, j, p in rows:
            by_time.setdefault(t, 0.0)
            by_time[t] += float(p)
        assert all(abs(s - 1.0) < 1e-9 for s in by_time.values())

        with open(tmp_path / "grid_matrix.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0].startswith("# qcradle=")
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert matrix.shape == (40, 11)

    def test_grid_cap_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QCRADLE_COMPUTE_CAP", "0.001")
        cfg = write(tmp_path / "run.ini", EVOLVE)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CAP
        assert "QCRADLE_COMPUTE_CAP" in capsys.readouterr().err

    # 1e305 is finite, but the caps it scales are not
    @pytest.mark.parametrize("factor", ["inf", "1e305"])
    def test_infinite_cap_factor_is_config_error(self, factor, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QCRADLE_COMPUTE_CAP", factor)
        cfg = write(tmp_path / "run.ini", EVOLVE)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "QCRADLE_COMPUTE_CAP" in capsys.readouterr().err

    def test_infinite_t_max_writes_nothing(self, tmp_path):
        cfg = write(tmp_path / "run.ini", EVOLVE.replace("t_max = 3.2", "t_max = inf"))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".csv")]


_ROWS_PER_CHUNK3 = cli._CHUNK_VALUES // 3  # rows in one chunk of a 3-column table
_RNG_VALUES = np.random.default_rng(20).standard_normal(3 * _ROWS_PER_CHUNK3 + 5)


def _csv_cases():
    specials = np.array([-0.0, 5e-324, 1e-310, np.inf, -np.inf, np.nan, 1 / 3, 2.0**60])
    counts = np.array([0, -7, 2**62, 10**17 + 1])
    j = np.arange(_RNG_VALUES.size) % 100 + 1  # three full chunks and a partial fourth
    matrix = np.random.default_rng(21).uniform(-1e300, 1e300, size=(1, 20_000))
    return {
        "special_floats": (["x"], [specials]),
        "integers": (["n", "x"], [counts, counts / 3.0]),
        "partial_last_chunk": (["t", "j", "p"], [_RNG_VALUES, j, _RNG_VALUES**3]),
        "one_row": (["x", "y", "n"], [[0.1], [np.float64(-2.5e-8)], [np.int64(12)]]),
        "wider_than_a_chunk": (None, matrix.T),
    }


def _grid_cases():
    rng = np.random.default_rng(23)
    T = 2 * (cli._CHUNK_VALUES // 100) + 7  # two full blocks of a 100-site grid and a partial third
    special = np.array([0.0, 1.0, 5e-324, 1e-310, 1 / 3])
    return {
        "partial_last_block": (np.linspace(0.0, 3.2, T), rng.random((T, 100))),
        "wider_than_a_block": (np.array([0.0, 0.1, 1 / 3]), rng.random((3, 2100))),
        "special_values": (special, np.array([np.roll(special, k) for k in range(5)])),
        "one_site": (np.array([0.0, 2.5]), np.ones((2, 1))),
    }


_OLD_GRID = {"grid.csv": b"old grid\n", "grid_matrix.csv": b"old matrix\n"}


def _fail_data_write(monkeypatch, fail=0, at=2):
    """Make the ``fail``-th text file the writers open raise on its ``at``-th
    write of data rows; returns that file's data writes."""
    real_fdopen = os.fdopen
    opened, chunks = [], []

    class FailingFile:
        def __init__(self, *args, **kwargs):
            self.fh = real_fdopen(*args, **kwargs)
            self.index = len(opened)
            opened.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if self.index == fail and not text.startswith("#"):
                chunks.append(text)
                if len(chunks) == at:
                    raise OSError("no space left on device")
            return self.fh.write(text)

    monkeypatch.setattr(cli.os, "fdopen", FailingFile)
    return chunks


class TestCsvWriter:
    @pytest.mark.parametrize("case", list(_csv_cases()))
    def test_bytes_equal_per_value_formatter(self, case, tmp_path):
        header, columns = _csv_cases()[case]
        (path,) = cli._write_csvs(str(tmp_path), "# meta", {"t.csv": (header, columns)})
        assert Path(path).read_bytes() == reference_csv("# meta", header, columns)

    @pytest.mark.parametrize("case", list(_grid_cases()))
    def test_grid_pair_bytes_equal_per_value_formatter(self, case, tmp_path):
        times, prob = _grid_cases()[case]
        T, M = prob.shape
        paths = cli._write_grid(str(tmp_path), "# meta", times, prob)
        assert paths == [str(tmp_path / "grid.csv"), str(tmp_path / "grid_matrix.csv")]
        long_columns = [np.repeat(times, M), np.tile(np.arange(1, M + 1), T), prob.ravel()]
        want = reference_csv("# meta", ["t", "j", "prob"], long_columns)
        assert Path(paths[0]).read_bytes() == want
        assert Path(paths[1]).read_bytes() == reference_csv("# meta", None, prob.T)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_permissions_follow_umask(self, umask, tmp_path):
        evolve = write(tmp_path / "evolve.ini", EVOLVE)
        spectrum = write(tmp_path / "spectrum.ini", TRAP_WITH_STATE)
        out = tmp_path / "out"
        out.mkdir()
        (out / "grid.csv").write_text("old")
        os.chmod(out / "grid.csv", 0o600)
        old = os.umask(umask)
        try:
            assert main(["evolve", "--config", evolve, "--out", str(out)]) == EXIT_OK
            assert main(["spectrum", "--config", spectrum, "--out", str(out)]) == EXIT_OK
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(os.stat(p).st_mode) for p in out.glob("*.csv")}
        want = 0o666 & ~umask
        assert modes == {"grid.csv": want, "grid_matrix.csv": want, "spectrum.csv": want}

    def test_failed_chunk_keeps_old_file(self, tmp_path, monkeypatch):
        (tmp_path / "t.csv").write_bytes(b"old bytes\n")
        chunks = _fail_data_write(monkeypatch)
        columns = [_RNG_VALUES, _RNG_VALUES, _RNG_VALUES]
        with pytest.raises(OSError, match="no space"):
            cli._write_csvs(str(tmp_path), "# meta", {"t.csv": (["a", "b", "c"], columns)})
        assert len(chunks) == 2 and chunks[0].count("\n") == _ROWS_PER_CHUNK3
        assert (tmp_path / "t.csv").read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["t.csv"]

    @pytest.mark.parametrize("fail", list(_OLD_GRID))
    def test_failed_grid_chunk_keeps_both_old_files(self, fail, tmp_path, monkeypatch):
        for name, data in _OLD_GRID.items():
            (tmp_path / name).write_bytes(data)
        chunks = _fail_data_write(monkeypatch, list(_OLD_GRID).index(fail))
        rows = cli._CHUNK_VALUES // 100
        prob = np.random.default_rng(24).random((3 * rows, 100))
        with pytest.raises(OSError, match="no space"):
            cli._write_grid(str(tmp_path), "# meta", np.linspace(0.0, 1.0, 3 * rows), prob)
        lines = rows * (100 if fail == "grid.csv" else 1)
        assert len(chunks) == 2 and chunks[0].count("\n") == lines
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == _OLD_GRID

    def test_failed_second_mkstemp_keeps_both_old_files(self, tmp_path, monkeypatch):
        for name, data in _OLD_GRID.items():
            (tmp_path / name).write_bytes(data)
        real_mkstemp = cli.tempfile.mkstemp
        prefixes = []

        def mkstemp(*args, **kwargs):
            prefixes.append(kwargs["prefix"])
            if len(prefixes) == 2:
                raise OSError("too many open files")
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(cli.tempfile, "mkstemp", mkstemp)
        with pytest.raises(OSError, match="too many open files"):
            cli._write_grid(str(tmp_path), "# meta", np.zeros(2), np.ones((2, 3)))
        assert prefixes == ["grid.csv.", "grid_matrix.csv."]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == _OLD_GRID

    def test_memory_bounded_on_a_cap_sized_grid(self, tmp_path):
        T, M = GRID_CELL_CAP // 100, 100
        prob = np.random.default_rng(22).random((T, M))
        times = np.linspace(0.0, 1.0, T)
        tracemalloc.start()
        try:
            cli._write_grid(str(tmp_path), "# meta", times, prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestTuneCommand:
    def test_failed_best_write_keeps_the_old_pair(self, tmp_path, monkeypatch):
        # tune.csv is written in full, then tune_best.csv's first row fails:
        # neither file is replaced and no temp file is left
        old = {"tune.csv": b"old trace\n", "tune_best.csv": b"old best\n"}
        for name, data in old.items():
            (tmp_path / name).write_bytes(data)
        cfg = write(tmp_path / "run.ini", TUNE_ONE_POINT)
        chunks = _fail_data_write(monkeypatch, fail=1, at=1)
        assert main(["tune", "--config", cfg, "--out", str(tmp_path)]) == EXIT_IO
        assert len(chunks) == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix != ".ini"} == old
        assert sorted(os.listdir(tmp_path)) == ["run.ini", "tune.csv", "tune_best.csv"]

    def test_single_point_grid(self, tmp_path):
        cfg = write(tmp_path / "run.ini", TUNE_ONE_POINT)
        assert main(["tune", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, header, rows = read_rows(tmp_path / "tune.csv")
        assert header == ["x", "amplitude"]
        assert len(rows) == 1
        _, header, rows = read_rows(tmp_path / "tune_best.csv")
        assert header == ["x", "amplitude", "time", "evaluations"]
        assert float(rows[0][0]) == 1.0

    def test_tiny_hopping(self, tmp_path):
        body = TUNE_ONE_POINT.replace("m = 12", "m = 5").replace("tau = 1.0", "tau = 1e-10")
        cfg = write(tmp_path / "run.ini", body.replace("points = 1", "points = 3"))
        assert main(["tune", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, _, rows = read_rows(tmp_path / "tune_best.csv")
        assert float(rows[0][1]) > 0.99

    def test_single_mode_m100_beats_uniform(self, tmp_path):
        cfg = write(
            tmp_path / "run.ini",
            TUNE_ONE_POINT.replace("m = 12", "m = 100").replace("points = 1", "points = 50"),
        )
        assert main(["tune", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, _, rows = read_rows(tmp_path / "tune_best.csv")
        assert float(rows[0][1]) >= 0.853


# sha256 of every CSV the demo configs write, by case: (config, command and
# overrides, {file: digest}); the same with 1 and 2 BLAS threads and with the
# thread count unset
DEMO_CSVS = {
    "oracle_m4": ("oracle_m4", ["oracle"], {
        "oracle.csv": "15a37c93147ae5950fb1a5ba3dd98266f05f98669365d2122aaf6edf1cf7277e",
    }),
    "trap_bounce": ("trap_bounce", ["evolve"], {
        "grid.csv": "43b59836b95238b1d662aa51afdf87c414da7f70d75e176fb4a7a5ad026d33a4",
        "grid_matrix.csv": "849d1070b03161b8e4f5a61c5c27b831320295d53d1e706615b3a21a4293f53a",
    }),
    "trap_spectrum": ("trap_spectrum", ["spectrum"], {
        "spectrum.csv": "e62ad9a0a2de689a73836a5b25cb1883aa03911d2b17bbdd220971b992f707a3",
    }),
    "tune_two_bond": ("tune_two_bond", ["tune"], {
        "tune.csv": "d8046476576659a83c0ba4aec543095ad8c9db3f1ace8379e5a15a1a19e3960a",
        "tune_best.csv": "ab5ae1c1c9c43020330990ab642a8f4a76796bca81500a6622c09b8e52850552",
    }),
    "tune_two_bond-single": ("tune_two_bond", ["tune", "--override", "tune.mode=single"], {
        "tune.csv": "c3771653d40a0c8881192960f13914803bb43f0592d47cdbd5c1214c12ce98d7",
        "tune_best.csv": "79d775a60d77332a6c479cfc016b5f129af5d69ef5c21ca8db5169e7455ec79e",
    }),
    "uniform_bounce": ("uniform_bounce", ["evolve"], {
        "grid.csv": "dfd5424c3ea929658263fba4b2bf88d93e10b5b8766f74700dba5835e6ec6f2d",
        "grid_matrix.csv": "f89b5bac4301f396cef8adf96a89b658ecce9111aa9d76bd835760b7da30fea1",
    }),
}


def assert_demo_csvs(case, tmp_path):
    config, argv, digests = DEMO_CSVS[case]
    cfg = Path(__file__).resolve().parent.parent / "demos" / "configs" / f"{config}.ini"
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == digests


# the oracle config is pinned by TestOracleCommand::test_demo_config_bytes_pinned
@pytest.mark.parametrize("case", [c for c in DEMO_CSVS if c != "oracle_m4"])
def test_demo_config_bytes_pinned(case, tmp_path):
    assert_demo_csvs(case, tmp_path)


class TestOracleCommand:
    def test_basis_dim_in_metadata(self, tmp_path):
        cfg = write(tmp_path / "run.ini", ORACLE_M2)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        meta, header, rows = read_rows(tmp_path / "oracle.csv")
        assert "basis_dim=4" in meta
        assert "tau_convention=" in meta
        assert header == ["t", "leakage", "max_deviation"]
        assert len(rows) == 6

    def test_frozen_hopping_rows(self, tmp_path):
        cfg = write(tmp_path / "run.ini", ORACLE_M2.replace("t = 1.0", "t = 0.0"))
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        _, _, rows = read_rows(tmp_path / "oracle.csv")
        assert all(abs(float(r[1])) < 1e-14 and float(r[2]) == 0.0 for r in rows)

    def test_lattice_cap(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", ORACLE_M2.replace("m = 2", "m = 6"))
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CAP
        assert capsys.readouterr().err.count("QCRADLE_COMPUTE_CAP") == 1
        assert not (tmp_path / "oracle.csv").exists()

    def test_infinite_t_max_writes_nothing(self, tmp_path):
        cfg = write(tmp_path / "run.ini", ORACLE_M2.replace("t_max = 10", "t_max = inf"))
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "oracle.csv").exists()

    def test_infinite_interaction_writes_nothing(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", ORACLE_M2)
        argv = ["oracle", "--config", cfg, "--out", str(tmp_path), "--override", "hubbard.u=inf"]
        assert main(argv) == EXIT_CONFIG
        assert "U must be finite" in capsys.readouterr().err
        assert not (tmp_path / "oracle.csv").exists()

    def test_demo_config_bytes_pinned(self, tmp_path):
        assert_demo_csvs("oracle_m4", tmp_path)

    def test_occupancy_cap_far_above_the_atoms(self, tmp_path):
        # M = 4 puts at most 3 atoms of a species on a site, so nmax = 10**8
        # gives the rows of nmax = 3, and in seconds
        cfg = str(Path(__file__).resolve().parent.parent / "demos" / "configs" / "oracle_m4.ini")
        rows = {}
        for nmax in (3, 10**8):
            out = tmp_path / str(nmax)
            start = time.perf_counter()
            argv = ["oracle", "--config", cfg, "--out", str(out), "--override", f"hubbard.nmax={nmax}"]
            assert main(argv) == EXIT_OK
            assert time.perf_counter() - start < 10.0
            rows[nmax] = read_rows(out / "oracle.csv")[2]
        assert rows[10**8] == rows[3]


class TestValidation:
    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", UNIFORM3 + "bogus = 1\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_key_named(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", "[chain]\nkind = uniform\nm = 3\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "tau" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write(tmp_path / "run.ini", UNIFORM3 + "\n[tune]\nmode = single\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_override_applies(self, tmp_path):
        cfg = write(tmp_path / "run.ini", UNIFORM3)
        csv = {}
        # override keys fold like the file's keys: M is m
        for key in ("m", "M"):
            out = tmp_path / key
            assert (
                main(["spectrum", "--config", cfg, "--out", str(out), "--override", f"chain.{key}=5"])
                == EXIT_OK
            )
            _, _, rows = read_rows(out / "spectrum.csv")
            assert len(rows) == 5
            csv[key] = (out / "spectrum.csv").read_bytes()
        assert csv["M"] == csv["m"]

    def test_bad_override_value(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", UNIFORM3)
        rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--override", "chain.m=x"])
        assert rc == EXIT_CONFIG
        assert "'m'" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        rc = main(["spectrum", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert rc == EXIT_IO

    def test_unwritable_out_is_io_error(self, tmp_path):
        cfg = write(tmp_path / "run.ini", UNIFORM3)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["spectrum", "--config", cfg, "--out", str(blocker / "sub")])
        assert rc == EXIT_IO

    def test_no_partial_file_on_failure(self, tmp_path):
        cfg = write(tmp_path / "run.ini", UNIFORM3 + "x = 0.5\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "spectrum.csv").exists()
        assert not [f for f in os.listdir(tmp_path) if f.startswith("spectrum.csv.")]

    def test_species_interaction_keys_rejected(self, tmp_path, capsys):
        # the oracle takes one interaction u for both species
        cfg = write(tmp_path / "run.ini", ORACLE_M2)
        for key in ("u0", "u1"):
            argv = ["oracle", "--config", cfg, "--out", str(tmp_path), "--override", f"hubbard.{key}=40"]
            assert main(argv) == EXIT_CONFIG
            assert f"[hubbard] has unexpected key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "oracle.csv").exists()

    # one refused count per layer (chains, dynamics, tuner, hubbard), and the oracle's M
    @pytest.mark.parametrize(
        "command, body, override, message",
        [
            ("spectrum", UNIFORM3, "chain.m=0", "M must be an integer >= 1, got 0"),
            ("evolve", EVOLVE, "evolve.steps=1", "steps must be an integer >= 2, got 1"),
            ("tune", TUNE_ONE_POINT, "tune.points=0", "points must be an integer >= 1, got 0"),
            ("oracle", ORACLE_M2, "hubbard.nmax=0", "nmax must be an integer >= 1, got 0"),
            ("oracle", ORACLE_M2, "hubbard.m=0", "M must be an integer >= 1, got 0"),
        ],
        ids=["chain.m", "evolve.steps", "tune.points", "hubbard.nmax", "hubbard.m"],
    )
    def test_bad_count_is_config_error(self, command, body, override, message, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", body)
        argv = [command, "--config", cfg, "--out", str(tmp_path), "--override", override]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    # the config refusals that name no count: each exits 2 with its message
    @pytest.mark.parametrize(
        "command, body, argv, cap, message",
        [
            ("spectrum", UNIFORM3, [], "lots", f"{cli.ENV_CAP} must be a number, got 'lots'"),
            ("spectrum", "m = 3\n", [], None, "cannot parse config: "),
            ("spectrum", UNIFORM3, ["--override", "chain.m"], None, "override must look like section.key=value"),
            ("spectrum", "[state]\nkind = kick\nsite = 1\n", [], None, "missing required section [chain]"),
            ("spectrum", UNIFORM3, ["--override", "chain.kind=ring"], None, "[chain] key 'kind': unknown kind 'ring'"),
            (
                "tune", TUNE_ONE_POINT, ["--override", "tune.mode=triple"], None,
                "[tune] key 'mode': must be 'single' or 'double', got 'triple'",
            ),
            (
                "tune", TUNE_ONE_POINT, ["--override", "chain.kind=pst"], None,
                "[chain] key 'kind': tune requires the uniform bulk chain",
            ),
        ],
        ids=["cap-factor", "unparsable", "override", "missing-section", "unknown-kind", "tune-mode", "tune-chain"],
    )
    def test_refusals(self, command, body, argv, cap, message, tmp_path, monkeypatch, capsys):
        if cap is not None:
            monkeypatch.setenv(cli.ENV_CAP, cap)
        cfg = write(tmp_path / "run.ini", body)
        assert main([command, "--config", cfg, "--out", str(tmp_path), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("entry", ["dir = results", "precision = 17"])
    def test_output_section_rejected(self, entry, tmp_path, monkeypatch, capsys):
        cfg = write(tmp_path / "run.ini", UNIFORM3 + f"\n[output]\n{entry}\n")
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG
        assert "[output]" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_out_defaults_to_working_directory(self, tmp_path, monkeypatch):
        cfg = write(tmp_path / "run.ini", UNIFORM3)
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--config", cfg]) == EXIT_OK
        assert [p.name for p in tmp_path.rglob("*.csv")] == ["spectrum.csv"]
