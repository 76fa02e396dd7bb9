import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

import qcradle
from qcradle import (
    HubbardParams,
    TooLargeError,
    build_hamiltonian,
    compare_effective,
    diagonalize,
    effective_params,
    enumerate_basis,
)
from qcradle.chains import ChainSpec, kick_state
from qcradle.hubbard import _reflection, _sector_modes, _sectors
from util import dense_propagate, hubbard_reference


def _uniform_params(M, t, U, U0=None, U1=None):
    return HubbardParams(
        M=M,
        t0=np.full(M - 1, float(t)),
        t1=np.full(M - 1, float(t)),
        U=U,
        U0=U if U0 is None else U0,
        U1=U if U1 is None else U1,
    )


# (M, N0, N1, nmax) cases checked against the state-by-state reference
REFERENCE_CASES = [(2, 1, 1, 2), (3, 2, 1, 2), (4, 3, 1, 4), (5, 2, 2, 3), (4, 4, 3, 2), (3, 0, 0, 2), (1, 1, 0, 2)]


def _seeded_params(M, seed):
    # t0 != t1, U0 != U1 != U and xi != 0, so every term has its own value
    rng = np.random.default_rng(seed)
    U, U0, U1 = (float(u) for u in rng.uniform(5.0, 50.0, 3))
    t0, t1 = rng.uniform(0.2, 1.5, (2, M - 1))
    return HubbardParams(M=M, t0=t0, t1=t1, U=U, U0=U0, U1=U1, xi=rng.uniform(-1.0, 1.0, M))


def _cradle_reference(p, times, nmax=2):
    """Full-space dense oracle for compare_effective: the basis dimension,
    leakage and both deviation arrays from one eigh of the state-by-state
    reference H."""
    M = p.M
    states, H = hubbard_reference(p, M - 1, 1, nmax)
    index = {s: i for i, s in enumerate(states)}
    singles = [index[(tuple((1 - e).tolist()), tuple(e.tolist()))] for e in np.eye(M, dtype=int)]
    lam, V = np.linalg.eigh(H)
    psi = V[singles] @ (V[singles[0]][:, None] * np.exp(-1j * np.outer(lam, times)))
    praw = np.abs(psi) ** 2
    pnorm = praw.sum(axis=0)
    tau = 2.0 * p.t0 * p.t1 / p.U
    z0 = kick_state(M, 1).z
    deviations = {}
    for name, scale in (("2t^2/U", 1.0), ("t^2/U", 0.5)):
        spec = ChainSpec(M=M, tau=tau * scale, eps=np.zeros(M))
        peff = np.stack([np.abs(dense_propagate(spec, z0, t)) ** 2 for t in times], axis=1)
        deviations[name] = np.max(np.abs(praw / pnorm - peff), axis=0)
    return len(states), 1.0 - pnorm, deviations


def _cradle_params(M, kind, seed):
    # species-independent couplings; with the non-integer U the reflected
    # diagonal of the palindromic kinds differs in its last bits (M >= 3)
    rng = np.random.default_rng(seed)
    t, xi = np.ones(M - 1), np.zeros(M)
    if kind == "palindromic-t":
        half = rng.uniform(0.5, 1.5, M // 2)
        t = np.concatenate([half, half[: (M - 1) // 2][::-1]])
    elif kind == "palindromic-xi":
        half = rng.uniform(-0.5, 0.5, (M + 1) // 2)
        xi = np.concatenate([half, half[: M // 2][::-1]])
    elif kind == "skew-t":
        t = rng.uniform(0.5, 1.5, M - 1)
    elif kind == "skew-xi":
        xi = rng.uniform(-0.5, 0.5, M)
    U = 50.0 if kind == "uniform" else 37.3
    return HubbardParams(M=M, t0=t, t1=t, U=U, U0=U, U1=U, xi=xi)


class TestEffectiveParams:
    def test_species_independent_hand_case(self):
        e = effective_params(_uniform_params(3, 1.0, 10.0))
        assert np.allclose(e.tau, [0.2, 0.2], rtol=0, atol=0)
        assert np.all(e.gamma == 0.0)
        assert np.all(e.sigma == 0.0)

    def test_vanishing_species1_hopping(self):
        p = HubbardParams(M=2, t0=[1.0], t1=[0.0], U=2.0, U0=2.0, U1=2.0)
        e = effective_params(p)
        assert np.array_equal(e.tau, [0.0])
        assert np.array_equal(e.gamma, [0.0])
        # the chemical-potential piece survives: 2/U0 - 1/U = 1/2
        assert np.allclose(e.sigma, [0.5], rtol=0, atol=1e-16)

    def test_asymmetric_hand_case(self):
        e = effective_params(HubbardParams(M=2, t0=[1.0], t1=[2.0], U=8.0, U0=4.0, U1=16.0))
        assert e.tau[0] == pytest.approx(0.5, abs=0)
        assert e.gamma[0] == pytest.approx(0.25, abs=0)
        assert e.sigma[0] == pytest.approx(-0.125, abs=0)

    def test_recomputable_from_formulas(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            M = int(rng.integers(2, 7))
            p = HubbardParams(
                M=M,
                t0=rng.uniform(0.1, 2.0, M - 1),
                t1=rng.uniform(0.1, 2.0, M - 1),
                U=float(rng.uniform(1, 50)),
                U0=float(rng.uniform(1, 50)),
                U1=float(rng.uniform(1, 50)),
            )
            e = effective_params(p)
            for j in range(M - 1):
                t0, t1 = p.t0[j], p.t1[j]
                assert e.tau[j] == 2.0 * t0 * t1 / p.U
                assert e.gamma[j] == 2.0 * ((t0**2 + t1**2) / p.U - t0**2 / p.U0 - t1**2 / p.U1)
                assert e.sigma[j] == 2.0 * t0**2 / p.U0 - (t0**2 + t1**2) / p.U

    def test_species_independent_cancellation_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            M = int(rng.integers(2, 8))
            e = effective_params(_uniform_params(M, rng.uniform(0.1, 3.0), rng.uniform(1.0, 100.0)))
            assert np.all(e.gamma == 0.0) and np.all(e.sigma == 0.0)

    def test_rejects_nonpositive_interactions(self):
        with pytest.raises(ValueError):
            _uniform_params(3, 1.0, 0.0)
        with pytest.raises(ValueError):
            _uniform_params(3, 1.0, 10.0, U0=-1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("name", ["t0", "t1", "U", "U0", "U1", "xi"])
    def test_rejects_non_finite_couplings(self, name, bad):
        kwargs = dict(M=3, t0=[1.0, 1.0], t1=[1.0, 1.0], U=10.0, U0=10.0, U1=10.0, xi=[0.0, 0.1, 0.0])
        kwargs[name] = bad if name.startswith("U") else [1.0, bad, 1.0][: len(kwargs[name])]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            HubbardParams(**kwargs)


class TestFockBasis:
    @pytest.mark.parametrize(
        "M,N0,N1,nmax,dim",
        [(2, 1, 1, 2, 4), (3, 2, 1, 2, 18), (4, 3, 1, 4, 80)],
    )
    def test_counts(self, M, N0, N1, nmax, dim):
        assert enumerate_basis(M, N0, N1, nmax).dim == dim

    def test_deterministic_lexicographic_order(self):
        basis = enumerate_basis(3, 2, 1, 2)
        occ0, occ1 = basis.occ
        c1 = len(occ1)
        flat = [tuple(occ0[i // c1]) + tuple(occ1[i % c1]) for i in range(basis.dim)]
        assert flat == sorted(flat)
        assert len(set(flat)) == basis.dim
        for i in range(basis.dim):
            assert basis.index(occ0[i // c1], occ1[i % c1]) == i

    def test_index_rejects_foreign_rows(self):
        basis = enumerate_basis(3, 2, 1, 2)
        for n0, n1 in (([2, 0, 1], [1, 0, 0]), ([1, 1], [1, 0, 0]), ([0], [1, 0, 0]), ([1, 1, 0], [1, 0])):
            with pytest.raises(ValueError, match="not a state of this basis"):
                basis.index(n0, n1)

    def test_conserves_atom_numbers(self):
        basis = enumerate_basis(4, 3, 1, 2)
        occ0, occ1 = basis.occ
        assert np.all(occ0.sum(axis=1) == 3) and np.all(occ1.sum(axis=1) == 1)
        assert occ0.max() <= 2 and occ1.max() <= 2
        assert not occ0.flags.writeable and not occ1.flags.writeable

    def test_rows_and_counts_match_brute_force(self):
        for M in range(1, 6):
            for nmax in (1, 2, 3):
                vectors = list(itertools.product(range(nmax + 1), repeat=M))
                for N in range(M * nmax + 1):
                    rows = [list(v) for v in vectors if sum(v) == N]
                    assert enumerate_basis(M, N, 0, nmax, max_states=len(rows)).occ[0].tolist() == rows
                    with pytest.raises(TooLargeError):
                        enumerate_basis(M, N, 0, nmax, max_states=len(rows) - 1)

    @pytest.mark.parametrize("M,N0,N1,nmax", REFERENCE_CASES)
    def test_order_matches_reference(self, M, N0, N1, nmax):
        states, _ = hubbard_reference(_seeded_params(M, 0), N0, N1, nmax)
        basis = enumerate_basis(M, N0, N1, nmax)
        occ0, occ1 = basis.occ
        c0, c1 = len(occ0), len(occ1)
        pairs = np.stack([np.repeat(occ0, c1, axis=0), np.tile(occ1, (c0, 1))], axis=1)
        assert pairs.tolist() == [[list(a), list(b)] for a, b in states]

    # in the last case a base-(nmax+1) integer key per row would need 256^8 = 2^64 values
    @pytest.mark.parametrize("M,N0,N1,nmax", [(4, 3, 1, 2), (5, 4, 1, 2), (4, 2, 2, 3), (5, 3, 2, 2), (1, 1, 0, 2), (8, 2, 1, 255)])
    def test_reflection_reverses_rows(self, M, N0, N1, nmax):
        basis = enumerate_basis(M, N0, N1, nmax)
        R = _reflection(basis)
        states = np.arange(basis.dim)
        assert np.array_equal(R[R], states)
        occ0, occ1 = basis.occ
        c1 = len(occ1)
        assert np.array_equal(occ0[R // c1], occ0[states // c1][:, ::-1])
        assert np.array_equal(occ1[R % c1], occ1[states % c1][:, ::-1])

    # the cradle basis, hard-core bosons at half filling, one hole below a full lattice:
    # the exact inclusion-exclusion count alone takes minutes for each
    @pytest.mark.parametrize("M,N0,N1,nmax", [(20000, 19999, 1, 2), (20000, 10000, 0, 1), (100000, 199999, 1, 2)])
    def test_cap_refuses_long_chain_before_counting(self, M, N0, N1, nmax):
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match="at least"):
            enumerate_basis(M, N0, N1, nmax)
        assert time.perf_counter() - start < 1.0

    def test_row_build_time_does_not_grow_with_nmax(self):
        # a site holds at most the N atoms there are, so every nmax >= N gives
        # the rows of nmax = N; the build must not walk up to nmax per site
        start = time.perf_counter()
        basis = enumerate_basis(200, 1, 0, 10**5)
        assert time.perf_counter() - start < 1.0
        for rows, ref in zip(basis.occ, enumerate_basis(200, 1, 0, 1).occ):
            assert np.array_equal(rows, ref)

    @pytest.mark.parametrize("nmax", [3, 10**8, 10**20])
    def test_row_dtype_follows_the_atoms(self, nmax):
        # no site holds more than the N = 3 atoms, so a larger nmax widens nothing
        basis, ref = enumerate_basis(4, 3, 1, nmax), enumerate_basis(4, 3, 1, 3)
        for rows, ref_rows in zip(basis.occ, ref.occ):
            assert rows.dtype == np.uint8
            assert np.array_equal(rows, ref_rows)

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            enumerate_basis(12, 12, 0, 12)
        tracemalloc.start()
        try:
            basis = enumerate_basis(12, 12, 0, 12, max_states=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.dim == 1_352_078
        assert peak < 128e6


class TestBuildHamiltonian:
    def test_hermitian_exactly(self):
        p = _uniform_params(4, 0.9, 30.0)
        H = build_hamiltonian(p, enumerate_basis(4, 3, 1, 2)).toarray()
        assert np.max(np.abs(H - H.T)) == 0.0

    def test_single_atom_reduces_to_chain_spectrum(self):
        # one species-0 atom: the interaction contributes the constant
        # U (M - 2) / 4 on top of the bare hopping spectrum
        M, U = 5, 12.0
        t0 = np.array([0.7, 1.1, 0.9, 1.3])
        p = HubbardParams(M=M, t0=t0, t1=t0, U=U, U0=U, U1=U)
        basis = enumerate_basis(M, 1, 0, 2)
        w = np.linalg.eigvalsh(build_hamiltonian(p, basis).toarray())
        chain = diagonalize(ChainSpec(M=M, tau=t0, eps=np.zeros(M)))
        assert np.allclose(np.sort(w) - U * (M - 2) / 4.0, chain.omega, rtol=0, atol=1e-12)

    def test_two_site_hand_matrix(self):
        t, U = 0.7, 6.0
        p = HubbardParams(M=2, t0=[t], t1=[t], U=U, U0=U, U1=U)
        H = build_hamiltonian(p, enumerate_basis(2, 1, 1, 2)).toarray()
        ref = np.array(
            [
                [U / 2, -t, -t, 0.0],
                [-t, -U / 2, 0.0, -t],
                [-t, 0.0, -U / 2, -t],
                [0.0, -t, -t, U / 2],
            ]
        )
        assert np.array_equal(H, ref)

    def test_site_offsets_enter_diagonal(self):
        t, U = 0.5, 9.0
        p = HubbardParams(M=2, t0=[t], t1=[t], U=U, U0=U, U1=U, xi=[0.3, -0.2])
        basis = enumerate_basis(2, 1, 1, 2)
        H = build_hamiltonian(p, basis).toarray()
        base = build_hamiltonian(
            HubbardParams(M=2, t0=[t], t1=[t], U=U, U0=U, U1=U), basis
        ).toarray()
        occ0, occ1 = (rows.astype(int) for rows in basis.occ)
        atoms = np.repeat(occ0, len(occ1), axis=0) + np.tile(occ1, (len(occ0), 1))
        shifts = atoms @ [0.3, -0.2]
        assert np.allclose(H - base, np.diag(shifts), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("M,N0,N1,nmax", REFERENCE_CASES)
    def test_bitwise_equal_to_reference(self, M, N0, N1, nmax):
        p = _seeded_params(M, 1000 * M + 100 * N0 + 10 * N1 + nmax)
        _, ref = hubbard_reference(p, N0, N1, nmax)
        assert build_hamiltonian(p, enumerate_basis(M, N0, N1, nmax)).toarray().tobytes() == ref.tobytes()


class TestSectorModes:
    @staticmethod
    def _check(H, S, rows, monkeypatch):
        # against a dense eigh of the block, and through LAPACK sytrd and spectral._stevd's
        # stevd, which a one-state block skips
        lam_ref, V = np.linalg.eigh((S.T @ H @ S).toarray())
        ref = S[rows] @ V
        calls = []

        class Spy:
            def __getattr__(self, name):
                def call(*args, **kwargs):
                    calls.append(name)
                    return getattr(lapack, name)(*args, **kwargs)

                return call

        monkeypatch.setattr("qcradle.hubbard.lapack", Spy())
        monkeypatch.setattr("qcradle.spectral.lapack", Spy())
        lam, got = _sector_modes(H, S, rows)
        monkeypatch.undo()
        assert "dsytrd" in calls and calls.count("dstevd") == (S.shape[1] > 1)
        assert lam.shape == lam_ref.shape and got.shape == ref.shape
        assert np.max(np.abs(lam - lam_ref)) <= 1e-12 * np.max(np.abs(lam_ref))
        # each mode's sign is LAPACK's choice: compare what the time loop reads
        assert np.max(np.abs(got * got[0] - ref * ref[0])) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 400])
    def test_random_block_identity_sector(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        H = sp.csr_matrix(A + A.T)
        rows = rng.permutation(n)[:7]
        self._check(H, sp.identity(n, format="csr"), rows, monkeypatch)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 400])
    def test_random_block_reflection_sectors(self, n, monkeypatch):
        # 2n states reversed by R, no fixed point: an even and an odd block of n states each
        rng = np.random.default_rng(n + 1)
        A = rng.standard_normal((2 * n, 2 * n))
        A += A.T
        H = sp.csr_matrix(A + A[::-1, ::-1])
        sectors = _sectors(np.arange(2 * n)[::-1])
        assert [S.shape[1] for S in sectors] == [n, n]
        rows = rng.permutation(2 * n)[:7]
        for S in sectors:
            self._check(H, S, rows, monkeypatch)

    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
    def test_every_cradle_sector(self, M, monkeypatch):
        p = _uniform_params(M, 1.0, 50.0)
        basis = enumerate_basis(M, M - 1, 1, 2)
        H = build_hamiltonian(p, basis)
        rows = np.array([basis.index(1 - e, e) for e in np.eye(M, dtype=int)])
        sectors = _sectors(_reflection(basis))
        assert len(sectors) == 2
        for S in sectors:
            self._check(H, S, rows, monkeypatch)


class TestCompareEffective:
    def test_frozen_limit(self):
        p = HubbardParams(M=3, t0=[0.0, 0.0], t1=[0.0, 0.0], U=50.0, U0=50.0, U1=50.0)
        rep = compare_effective(p, np.linspace(0.0, 10.0, 5))
        assert np.all(np.abs(rep.leakage) < 1e-14)
        assert np.all(rep.deviation == 0.0)

    @pytest.mark.parametrize("kind", ["uniform", "palindromic-t", "palindromic-xi", "skew-t", "skew-xi"])
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
    def test_sectors_match_full_space_reference(self, M, kind):
        p = _cradle_params(M, kind, seed=M)
        times = np.linspace(0.0, 60.0, 13)
        rep = compare_effective(p, times)
        dim, leakage, deviations = _cradle_reference(p, times)
        assert np.max(np.abs(rep.leakage - leakage)) <= 1e-10
        for name in deviations:
            assert np.max(np.abs(rep.deviations[name] - deviations[name])) <= 1e-10
        assert sum(rep.sector_dims) == rep.basis_dim == dim
        # a one-bond chain reads the same backwards whatever its hopping
        mirror = not kind.startswith("skew") or (kind, M) == ("skew-t", 2)
        assert len(rep.sector_dims) == (2 if mirror else 1)

    def test_one_effective_chain(self, monkeypatch):
        # both tau conventions run on one diagonalized chain; the frozen limit needs none
        calls = []
        monkeypatch.setattr("qcradle.hubbard.diagonalize", lambda spec: calls.append(spec) or diagonalize(spec))
        compare_effective(_uniform_params(4, 1.0, 50.0), [0.0, 1.0])
        assert len(calls) == 1
        compare_effective(_uniform_params(3, 0.0, 50.0), [0.0, 1.0])
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["uniform", "palindromic-t", "skew-t", "skew-xi"])
    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_half_time_is_the_half_tau_chain(self, M, kind, monkeypatch):
        # t^2/U scored at half the time equals, bit for bit, the chain built with tau / 2
        p = _cradle_params(M, kind, seed=M)
        times = np.linspace(0.0, 60.0, 13)
        rep = compare_effective(p, times)
        half = diagonalize(ChainSpec(M=M, tau=effective_params(p).tau / 2.0, eps=np.zeros(M)))
        monkeypatch.setattr("qcradle.hubbard.diagonalize", lambda spec: half)
        monkeypatch.setattr("qcradle.hubbard.TAU_CONVENTIONS", {"t^2/U": 1.0})
        ref = compare_effective(p, times)
        assert ref.deviations["t^2/U"].tobytes() == rep.deviations["t^2/U"].tobytes()

    def test_m7_memory(self):
        # two sectors of about 1250 states; one dense eigh of all 2499 peaks at 143 MB
        M = 7
        tracemalloc.start()
        try:
            rep = compare_effective(_uniform_params(M, 1.0, 50.0), np.linspace(0.0, 60.0, 13), max_dim=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.basis_dim == 2499 and len(rep.sector_dims) == 2 and sum(rep.sector_dims) == 2499
        assert peak < 64e6

    def test_m7_peak_rss(self):
        # tracemalloc does not see LAPACK's workspace; the process's peak RSS does.  A
        # dense eigh of each 1256-state sector raised it by about 65 MB, the tridiagonal
        # route with the few rows back-transformed by about 29 MB
        script = """
import resource
import numpy as np
from qcradle import HubbardParams, compare_effective

def run(M, **kw):
    t = np.ones(M - 1)
    compare_effective(HubbardParams(M=M, t0=t, t1=t, U=50.0, U0=50.0, U1=50.0), np.linspace(0.0, 60.0, 13), **kw)

run(3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run(7, max_dim=4096)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0)
"""
        src = str(Path(qcradle.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert float(run.stdout) < 45.0  # MB; ru_maxrss is in KiB on Linux

    def test_second_order_convention_matches(self):
        rep = compare_effective(_uniform_params(4, 1.0, 50.0), np.linspace(0.0, 60.0, 13))
        assert rep.convention == "2t^2/U"
        assert rep.basis_dim == 64
        assert rep.deviation.max() < 5e-3
        # the factor-two variant misses the transfer badly
        assert rep.deviations["t^2/U"].max() > 0.3

    def test_deviation_decreases_with_interaction(self):
        grid = np.linspace(0.0, 40.0, 9)
        worst = []
        for U in (25.0, 50.0, 100.0, 200.0):
            rep = compare_effective(_uniform_params(3, 1.0, U), grid)
            worst.append(rep.deviation.max())
        assert all(b < a for a, b in zip(worst, worst[1:]))

    def test_occupancy_cap_converged(self):
        grid = np.linspace(0.0, 60.0, 13)
        d2 = compare_effective(_uniform_params(4, 1.0, 50.0), grid, nmax=2).deviation.max()
        d3 = compare_effective(_uniform_params(4, 1.0, 50.0), grid, nmax=3).deviation.max()
        assert abs(d3 - d2) < d2

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_times(self, bad):
        with pytest.raises(ValueError, match="finite"):
            compare_effective(_uniform_params(3, 1.0, 50.0), [0.0, 1.0, bad])

    def test_refuses_before_building_h(self, monkeypatch):
        # M=8 has basis dim 8128, above the dense cap: no H may be assembled
        def boom(*args):
            raise AssertionError("build_hamiltonian called")

        monkeypatch.setattr("qcradle.hubbard.build_hamiltonian", boom)
        with pytest.raises(TooLargeError, match="basis would hold 8128 states, cap is 2048"):
            compare_effective(_uniform_params(8, 1.0, 50.0), [0.0, 1.0])

    def test_refuses_long_chain_fast(self):
        start = time.perf_counter()
        with pytest.raises(TooLargeError):
            compare_effective(_uniform_params(20000, 1.0, 50.0), [0.0, 1.0])
        assert time.perf_counter() - start < 1.0

    def test_requires_species_independence(self):
        p = HubbardParams(M=3, t0=[1.0, 1.0], t1=[1.0, 0.9], U=50.0, U0=50.0, U1=50.0)
        with pytest.raises(ValueError):
            compare_effective(p, [0.0, 1.0])


def _params(**kwargs):
    return HubbardParams(**{**dict(M=3, t0=[1.0, 1.0], t1=[1.0, 1.0], U=1.0, U0=1.0, U1=1.0), **kwargs})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _params(t0=[1.0]), "hopping lists must have length M-1 = 2"),
        (lambda: _params(t1=[1.0, 1.0, 1.0]), "hopping lists must have length M-1 = 2"),
        (lambda: _params(xi=[0.0, 0.0]), "xi must have length M = 3"),
        (lambda: enumerate_basis(2, 5, 0, 2), "nmax too small to host the atoms"),
        (lambda: enumerate_basis(2, 0, 3, 1), "nmax too small to host the atoms"),
        (lambda: build_hamiltonian(_params(), enumerate_basis(2, 1, 1, 2)), "params have M=3, basis has M=2"),
    ],
    ids=["t0-length", "t1-length", "xi-length", "nmax-N0", "nmax-N1", "params-basis-M"],
)
def test_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert info.type is ValueError and str(info.value) == message
