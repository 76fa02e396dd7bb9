import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, lapack

import qcradle.spectral
from qcradle import (
    ChainSpec,
    DegenerateSpectrumError,
    HubbardParams,
    compare_effective,
    diagonalize,
    edge_modified_chain,
    end_amplitude,
    gaussian_trap_chain,
    gaussian_wavepacket,
    kick_state,
    linearity_deviation,
    mirror_symmetric,
    mode_overlaps,
    peak_transfer,
    pseudo_wavevectors,
    pst_chain,
    tune_double,
    uniform_chain,
)
from qcradle.dynamics import PEAK_COARSE_STEP, _end_abs_scan
from qcradle.spectral import _WEIGHT_FLOOR, _eigvals, _end_weights
from util import dense_eig, dense_propagate, random_chain, residual_norm, seeded_spectrum, unfold_modes

SQRT2 = np.sqrt(2.0)


class TestSpectrum:
    def test_solves_on_first_use(self):
        # nothing is solved until read, then solved once (the bits are
        # eigh_tridiagonal's: TestDiagonalize::test_sign_convention_and_determinism)
        sp = diagonalize(random_chain(np.random.default_rng(5), M=23))
        assert "_eigenpairs" not in vars(sp) and "_end_modes" not in vars(sp)
        assert sp.g is sp.g and sp.omega is sp.omega
        assert not sp.g.flags.writeable and not sp.omega.flags.writeable

    @pytest.mark.parametrize(
        "family",
        [
            lambda M: uniform_chain(M, 1.0),
            lambda M: pst_chain(M, 1.0),
            lambda M: edge_modified_chain(M, 1.0, 0.5, 0.8),
        ],
        ids=["uniform", "pst", "two-bond"],
    )
    def test_transfer_builds_no_eigenvectors(self, family):
        # the benchmark's chain families take the certified eigenvalue route,
        # folded onto (M + 1) // 2 modes since they have eps = 0
        for M in (200, 500, 2000):
            sp = diagonalize(family(M))
            rep = peak_transfer(sp)
            assert abs(end_amplitude(sp, rep.peak_time)) == rep.peak_amplitude
            assert "_eigenpairs" not in vars(sp)
            nu, p, q = sp._end_modes
            assert nu.size == M // 2 and p is None and q.size == M // 2

    def test_transfer_memory_is_linear(self):
        # the eigenvectors alone would be 200 MB at M = 5000, and the
        # eigensolve peaked at 400 MB; the scan's phase blocks are ~62 MB
        sp = diagonalize(uniform_chain(5000, 1.0))
        tracemalloc.start()
        try:
            peak_transfer(sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20


def _two_bond(M):
    # two bond pairs need M >= 5 and one pair M >= 3; M = 2 has one bond
    if M < 3:
        return uniform_chain(M, 0.5)
    return edge_modified_chain(M, 1.0, 0.5, 0.8 if M >= 5 else None)


def _reference_chains(M):
    # uniform and centred trap; from M = 2 pst and an off-centre trap; from M = 3 edge
    specs = [uniform_chain(M, 1.0), gaussian_trap_chain(M, 1.0, (M + 1) / 2, M / 4.0)]
    specs += [pst_chain(M, 1.0), gaussian_trap_chain(M, 1.0, 1.0, M / 4.0)] if M >= 2 else []
    specs += [edge_modified_chain(M, 1.0, 0.4)] if M >= 3 else []
    return specs


def _transfer_error(spec):
    # the transfer's eigenvalues against one full solve, relative to the
    # spectral radius; its end weights against g_{n1} g_{nM}; and whether the
    # eigenvalues alone gave the weights (no eigenvector fallback)
    sp = diagonalize(spec)
    omega, w = unfold_modes(sp._end_modes, spec.M)
    full = eigvalsh_tridiagonal(spec.eps, -spec.tau)
    _, v = eigh_tridiagonal(spec.eps, -spec.tau)
    omega_error = np.max(np.abs(omega - full)) / np.max(np.abs(full))
    return omega_error, np.max(np.abs(w - v[0] * v[-1])), "_eigenpairs" not in vars(sp)


class TestEndWeights:
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 100, 101, 2000])
    @pytest.mark.parametrize(
        "family",
        [lambda M: uniform_chain(M, 1.0), lambda M: pst_chain(M, 1.0), _two_bond],
        ids=["uniform", "pst", "two-bond"],
    )
    def test_match_the_eigenvectors(self, family, M):
        # these mirror-symmetric chains take the reflection sectors
        omega_error, w_error, certified = _transfer_error(family(M))
        assert certified and omega_error <= 1e-13 and w_error <= 1e-13

    @pytest.mark.parametrize(
        "spec, certified",
        [(gaussian_trap_chain(100, 1.0, 50.0, 110.0), True), (edge_modified_chain(100, 1.0, 1e-9, 1.0), False)],
        ids=["trap100", "edge1e-9"],
    )
    def test_match_on_trap_and_nearly_cut_chains(self, spec, certified):
        # the sectors of the nearly cut chain give its end pair at |omega|
        # ~ 1e-18 to only eps ||T||: their weights would be 2e-8 off, and
        # the first-order error check hands them to the eigenvectors
        omega_error, w_error, route = _transfer_error(spec)
        assert route == certified and omega_error <= 1e-13 and w_error <= 1e-13

    def test_match_on_random_chains(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            assert max(_transfer_error(random_chain(rng))[:2]) <= 1e-13

    @pytest.mark.parametrize("offset", [0.0, 1e-12], ids=["mirror", "offset-end"])
    def test_match_on_random_mirror_chains(self, offset):
        # random on-site energies bind end states in pairs split by 1e-8 and
        # less.  Their weights came out 4e-8 off from the sector eigenvalues,
        # and 3.4e-9 off from the full solve once one end is offset (no
        # mirror symmetry); the sum |w_n| check certified both
        rng = np.random.default_rng(17)
        for _ in range(30):
            spec = random_chain(rng, symmetric=True)
            eps = spec.eps.copy()
            eps[-1] += offset
            spec = ChainSpec(M=spec.M, tau=spec.tau, eps=eps)
            assert mirror_symmetric(spec) == (offset == 0.0 or spec.M == 1)
            assert max(_transfer_error(spec)[:2]) <= 1e-13

    def test_single_site(self):
        assert np.array_equal(_end_weights(np.array([0.37]), np.array([]), 1), [1.0])

    @pytest.mark.parametrize(
        "tau",
        [
            # computed eigenvalues tie exactly
            [1.0, 1e-9, 1e-9, 1e-9, 1.0],
            # distinct eigenvalues 1 ulp apart: the weights exceed the
            # Cauchy-Schwarz bound sum |w_n| <= 1
            [1.0, 1e-15, 1.0],
        ],
        ids=["tie", "one-ulp"],
    )
    def test_uncertified_weights_fall_back_to_the_eigenvectors(self, tau):
        # no inf weight, no NaN amplitude and no RuntimeWarning (an error here)
        spec = ChainSpec(M=len(tau) + 1, tau=tau, eps=np.zeros(len(tau) + 1))
        assert _end_weights(eigvalsh_tridiagonal(spec.eps, -spec.tau), spec.tau, spec.M) is None
        sp = diagonalize(spec)
        # the eigenvector weights of an eps = 0 chain are not folded
        nu, p, q = sp._end_modes
        assert p is q and np.array_equal(nu, sp.omega)
        assert np.array_equal(p, sp.g[:, 0] * sp.g[:, -1])
        rep = peak_transfer(sp)
        assert np.isfinite(rep.peak_amplitude) and 0.0 <= rep.peak_amplitude <= 1.0
        assert np.isfinite(end_amplitude(sp, 7.5))

    @pytest.mark.parametrize("M, tau", [(4, 1e-308)] + [(M, 1e-310) for M in range(2, 11)])
    def test_subnormal_hoppings_fall_back_without_a_warning(self, M, tau):
        # the first-order error product meets 0 * inf here: its NaN refuses
        # the weights without a RuntimeWarning, and the eigenvectors serve
        sp = diagonalize(uniform_chain(M, tau))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu, p, q = sp._end_modes
        assert p is q and np.array_equal(nu, sp.omega)
        assert np.array_equal(p, sp.g[:, 0] * sp.g[:, -1])

    def test_near_tie_falls_back_to_the_eigenvectors(self):
        # the middle bond 1e-13 splits each pair of sector eigenvalues by
        # 1e-13; the sum |w_n| check refuses their weights and the
        # eigenvectors serve the transfer (the full-solve weights were
        # certified, and end_amplitude was 5.2e-12 off at |A| ~ 5e-9)
        spec = ChainSpec(M=4, tau=[1.0, 1e-13, 1.0], eps=np.zeros(4))
        assert _end_weights(_eigvals(spec), spec.tau, 2) is None
        sp = diagonalize(spec)
        for t in (3.0, 1e6):
            exact = dense_propagate(spec, kick_state(4, 1).z, t)[-1]
            assert abs(end_amplitude(sp, t) - exact) <= 1e-15

    def test_tune_double_fallback_count(self, monkeypatch):
        # the tuner's near-cut corner y = 0.02 splits end-state pairs by less
        # than the first-order check allows: of 2739 transfers, each with the
        # symmetrised spectrum from one sector, 5 took the eigenvectors
        calls = []
        weights, solve = qcradle.spectral._end_weights, qcradle.spectral._stevd

        def stevd(d, e, vectors=True):
            if vectors:
                calls.append("g")
            return solve(d, e, vectors)

        monkeypatch.setattr(qcradle.spectral, "_end_weights", lambda *a: calls.append("w") or weights(*a))
        monkeypatch.setattr(qcradle.spectral, "_stevd", stevd)
        tune_double(100, 1.0)
        assert (calls.count("w"), calls.count("g")) == (2739, 5)

    def test_pst2000_floor_leaves_the_scan_unchanged(self):
        # pst weights fall like 2^-M: the floor zeroes those whose scan
        # products would be subnormal, and the scan does not move a bit
        sp = diagonalize(pst_chain(2000, 1.0))
        nu, _, q = sp._end_modes
        raw = 2.0 * _end_weights(_eigvals(sp.spec), sp.spec.tau, 1000)
        assert not ((0.0 < np.abs(q)) & (np.abs(q) < 2.0 * _WEIGHT_FLOOR)).any()
        assert (q == 0.0).sum() > (raw == 0.0).sum()
        # the peak search's grid
        T = peak_transfer(sp).window[1]
        n = int(np.ceil(T * np.max(sp.spec.tau) / PEAK_COARSE_STEP)) + 1
        dt = T / (n - 1)
        assert np.array_equal(_end_abs_scan(nu, None, q, dt, n), _end_abs_scan(nu, None, raw, dt, n))

    @pytest.mark.parametrize(
        "spec",
        [_two_bond(100), uniform_chain(2000, 1.0), gaussian_trap_chain(257, 1.0, 128.5, 282.7)],
        ids=["two-bond100", "uniform2000", "trap257"],
    )
    def test_chunk_size_leaves_the_bits(self, spec, monkeypatch):
        # each row's sums are taken over that row alone, whatever the chunk
        # of rows: one row per chunk (M entries), three rows with a partial
        # last chunk (3M + 1), and the default
        args = []
        monkeypatch.setattr(qcradle.spectral, "_end_weights", lambda *a: args.append(a))
        diagonalize(spec)._end_modes
        monkeypatch.undo()
        (omega, tau, rows), M = args[0], spec.M
        default = _end_weights(omega, tau, rows)
        assert default is not None and rows % 3
        for chunk in (M, 3 * M + 1):
            monkeypatch.setattr(qcradle.spectral, "_GAP_CHUNK", chunk)
            assert np.array_equal(_end_weights(omega, tau, rows), default)


class TestReflectionSectors:
    @staticmethod
    def _solve_sizes(spec, monkeypatch):
        # the eigenvalue solves only: a chain whose weights fail their checks
        # also makes one full eigenvector solve
        sizes = []
        solve = qcradle.spectral._stevd

        def spy(d, e, vectors=True):
            if not vectors:
                sizes.append(len(d))
            return solve(d, e, vectors)

        monkeypatch.setattr(qcradle.spectral, "_stevd", spy)
        diagonalize(spec)._end_modes
        return sorted(sizes)

    @pytest.mark.parametrize("M", [100, 101])
    def test_mirror_chain_takes_two_half_size_solves(self, M, monkeypatch):
        # on-site offsets, or odd M, need both sectors
        spec = random_chain(np.random.default_rng(M), M=M, symmetric=True)
        assert self._solve_sizes(spec, monkeypatch) == [M // 2, (M + 1) // 2]
        if M % 2:
            assert self._solve_sizes(_two_bond(M), monkeypatch) == [M // 2, M // 2 + 1]

    @pytest.mark.parametrize("M", [2, 4, 100, 2000])
    @pytest.mark.parametrize(
        "family",
        [
            lambda M: uniform_chain(M, 1.0),
            lambda M: pst_chain(M, 1.0),
            _two_bond,
            lambda M: random_chain(np.random.default_rng(M), M=M, symmetric=True),
        ],
        ids=["uniform", "pst", "two-bond", "random"],
    )
    def test_even_chiral_mirror_chain_takes_one_sector(self, family, M, monkeypatch):
        # with eps = 0 the sublattice sign flip maps one sector onto minus
        # the other: one M/2-site solve gives the negative half of the spectrum
        spec = family(M)
        spec = ChainSpec(M=M, tau=spec.tau, eps=np.zeros(M))
        assert self._solve_sizes(spec, monkeypatch) == [M // 2]
        omega = _eigvals(spec)
        full = eigvalsh_tridiagonal(spec.eps, -spec.tau)
        assert np.array_equal(omega, -omega[::-1]) and (omega[: M // 2] < 0.0).all()
        assert np.max(np.abs(omega[: M // 2] - full[: M // 2])) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 100, 101])
    def test_stevd_is_eigvalsh_tridiagonal_bit_for_bit(self, M, monkeypatch):
        # _stevd calls LAPACK stevd itself, the driver eigvalsh_tridiagonal picks:
        # one site, mirror chains with one sector or two, off-centre traps with none
        specs = _reference_chains(M)
        got = [_eigvals(spec) for spec in specs]
        monkeypatch.setattr(qcradle.spectral, "_stevd", lambda d, e, vectors: eigvalsh_tridiagonal(d, e))
        for spec, omega in zip(specs, got):
            assert omega.tobytes() == _eigvals(spec).tobytes()

    def test_other_chains_take_the_full_solve(self):
        rng = np.random.default_rng(18)
        specs = [gaussian_trap_chain(100, 1.0, 50.0, 110.0), ChainSpec(M=4, tau=[1.0, 2.0, 1.5], eps=np.zeros(4))]
        specs += [random_chain(rng) for _ in range(20)]
        for spec in specs:
            assert spec.M == 1 or not mirror_symmetric(spec)
            assert np.array_equal(_eigvals(spec), eigvalsh_tridiagonal(spec.eps, -spec.tau))

    @pytest.mark.parametrize("M", [100, 101])
    def test_nearly_cut_middle_bond(self, M):
        # no NaN and no RuntimeWarning (an error here)
        tau = np.ones(M - 1)
        tau[(M - 2) // 2 : M // 2] = 1e-300
        sp = diagonalize(ChainSpec(M=M, tau=tau, eps=np.zeros(M)))
        omega, w = unfold_modes(sp._end_modes, M)
        assert np.isfinite(omega).all() and np.isfinite(w).all()
        assert np.isfinite(peak_transfer(sp).peak_amplitude)


def test_stevd_failure_raises_in_every_caller(monkeypatch):
    # one info check serves the eigenpairs, the sector eigenvalues and the oracle's sectors
    monkeypatch.setattr(lapack, "dstevd", lambda d, e, **kw: (d, np.eye(len(d)), 1))
    p = HubbardParams(M=3, t0=[1.0, 1.0], t1=[1.0, 1.0], U=50.0, U0=50.0, U1=50.0)
    for solve in (
        lambda: diagonalize(uniform_chain(5, 1.0)).g,
        lambda: peak_transfer(diagonalize(uniform_chain(6, 1.0))),
        lambda: compare_effective(p, [0.0, 1.0]),
    ):
        with pytest.raises(np.linalg.LinAlgError, match=r"info=1\)"):
            solve()


class TestDiagonalize:
    def test_uniform3_eigenvalues(self):
        omega = diagonalize(uniform_chain(3, 1.0)).omega
        assert np.allclose(omega, [-SQRT2, 0.0, SQRT2], rtol=0, atol=1e-12)

    def test_single_site(self):
        sp = diagonalize(ChainSpec(M=1, tau=[], eps=[0.37]))
        assert np.array_equal(sp.omega, [0.37])
        assert np.array_equal(sp.g, [[1.0]])

    def test_pst3_hand_spectrum(self):
        # characteristic polynomial of tridiag(0, -sqrt2): w(w^2 - 4) = 0
        omega = diagonalize(pst_chain(3, 1.0)).omega
        assert np.allclose(omega, [-2.0, 0.0, 2.0], rtol=0, atol=1e-12)

    def test_uniform_closed_form(self):
        for M in (2, 10, 100, 500):
            omega = diagonalize(uniform_chain(M, 1.0)).omega
            n = np.arange(1, M + 1)
            assert np.max(np.abs(omega + 2.0 * np.cos(np.pi * n / (M + 1)))) < 1e-10

    def test_uniform_eigenvectors_closed_form(self):
        for M in (5, 100, 500):
            g = diagonalize(uniform_chain(M, 1.0)).g
            n = np.arange(1, M + 1)[:, None]
            j = np.arange(1, M + 1)[None, :]
            ref = np.sqrt(2.0 / (M + 1)) * np.sin(np.pi * n * j / (M + 1))
            # LAPACK picks each row's sign; align it to the closed form
            sign = np.sign(np.sum(g * ref, axis=1, keepdims=True))
            assert np.max(np.abs(sign * g - ref)) < 1e-10

    def test_invariants_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            spec = random_chain(rng)
            sp = diagonalize(spec)
            gram = sp.g @ sp.g.T
            assert np.max(np.abs(gram - np.eye(spec.M))) < 1e-10
            scale = max(np.max(np.abs(sp.omega)), 1e-300)
            assert residual_norm(spec, sp.omega, sp.g) <= 1e-10 * scale
            assert np.all(np.diff(sp.omega) >= 0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = random_chain(rng)
            sp = diagonalize(spec)
            w_ref, _ = dense_eig(spec)
            assert np.max(np.abs(sp.omega - w_ref)) < 1e-11 * max(1.0, np.max(np.abs(w_ref)))

    def test_sign_convention_and_determinism(self):
        # the signs are LAPACK's, untouched, and the same on every call: omega
        # and g are eigh_tridiagonal's bit for bit, through stevd's one-site,
        # small (QL/QR) and divide-and-conquer paths, and g is C-ordered
        specs = [random_chain(np.random.default_rng(3), M=17)]
        specs += [spec for M in (1, 2, 3, 4, 5, 100, 101) for spec in _reference_chains(M)]
        for spec in specs:
            a = diagonalize(spec)
            b = diagonalize(spec)
            assert np.array_equal(a.g, b.g) and np.array_equal(a.omega, b.omega)
            w, v = eigh_tridiagonal(spec.eps, -spec.tau)
            assert a.omega.tobytes() == w.tobytes() and a.g.tobytes() == v.T.tobytes()
            assert a.g.flags.c_contiguous

    @pytest.mark.parametrize(
        "spec",
        [
            # a vanishing bond splits the chain: modes of the right block are
            # exactly zero on the leading sites
            ChainSpec(M=7, tau=[1.0, 0.7, 1e-300, 1.3, 0.9, 1.1], eps=[0.1, -0.2, 0.3, 2.0, 2.5, 1.5, 2.2]),
            ChainSpec(M=6, tau=[1.0, 1.0, 1e-300, 1.0, 1.0], eps=[0.0, 0.0, 0.0, 3.0, 3.0, 3.0]),
            uniform_chain(9, 1.0),
            pst_chain(8, 1.0),
        ],
    )
    def test_sign_convention_skips_zero_components(self, spec):
        # rows with exactly zero leading components come out as LAPACK
        # returns them, the same on every call
        sp = diagonalize(spec)
        assert np.array_equal(sp.g, diagonalize(spec).g)
        if spec.tau.min() < 1e-100:
            assert np.any(sp.g[:, 0] == 0.0)


    def test_memory_is_the_eigenvectors(self):
        # g is 32 MB at M = 2000; the peak stays near LAPACK's own output
        M = 2000
        spec = uniform_chain(M, 1.0)
        tracemalloc.start()
        try:
            diagonalize(spec).g
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 8 * M * M


class TestMirrorParity:
    """A mirror-symmetric chain with simple spectrum has eigenvectors of
    definite mirror parity, g[:, ::-1] = +-g, alternating between
    consecutive modes (Kay, Int. J. Quantum Inf. 8, 641, 2010)."""

    @staticmethod
    def assert_alternating(g, tol=1e-8):
        # row n is symmetric or antisymmetric; the sign flips with n
        rev = g[:, ::-1]
        sym = np.max(np.abs(rev - g), axis=1) <= tol
        anti = np.max(np.abs(rev + g), axis=1) <= tol
        assert np.all(sym ^ anti)
        assert np.all(sym[1:] != sym[:-1])

    def test_uniform3_alternates(self):
        self.assert_alternating(diagonalize(uniform_chain(3, 1.0)).g)

    def test_pst5_alternating_sequence(self):
        self.assert_alternating(diagonalize(pst_chain(5, 1.0)).g)

    def test_random_mirror_chains_alternate(self):
        # simple spectrum required: random symmetric offsets can build double
        # wells with exponentially small doublet splittings, where parity is
        # genuinely ill-conditioned, so those chains are excluded
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(40):
            spec = random_chain(rng, M=int(rng.integers(2, 25)), symmetric=True)
            sp = diagonalize(spec)
            width = sp.omega[-1] - sp.omega[0]
            if spec.M > 1 and np.min(np.diff(sp.omega)) < 1e-6 * width:
                continue
            self.assert_alternating(sp.g)
            checked += 1
        assert checked >= 25


class TestPseudoWavevectors:
    def test_unmodified_chain_exact(self):
        for M in (1, 4, 37):
            k = pseudo_wavevectors(M, 1.0)
            ref = np.pi * np.arange(1, M + 1) / (M + 1)
            assert np.max(np.abs(k - ref)) < 1e-12

    def test_cross_check_m4(self):
        k = pseudo_wavevectors(4, 0.5)
        omega = diagonalize(edge_modified_chain(4, 1.0, 0.5)).omega
        assert np.max(np.abs(-2.0 * np.cos(k) - omega)) < 1e-8

    def test_cross_check_sweep(self):
        for M in (4, 20, 100, 200):
            for x in (0.2, 0.35, 0.6, 0.9, 1.0):
                k = pseudo_wavevectors(M, x)
                assert np.all(np.diff(k) > 0)
                omega = diagonalize(edge_modified_chain(M, 1.0, x)).omega
                assert np.max(np.abs(-2.0 * np.cos(k) - omega)) < 1e-7

    def test_central_spacing_roughly_uniform(self):
        # near the dispersion inflection the shifted levels stay quasi-uniform
        k = pseudo_wavevectors(100, 0.48)
        d = np.diff(k)
        central = d[44:55]
        assert np.max(central) / np.min(central) < 1.10
        assert np.max(central) / np.min(central) < np.max(d) / np.min(d)

    @pytest.mark.parametrize("x", [0.001, 0.005, 0.012])
    @pytest.mark.parametrize("M", [4, 5, 100, 101])
    def test_strongly_weakened_edges(self, M, x):
        # the regime x < 0.015, where no bracket can reach |residual| <= 1e-12
        k = pseudo_wavevectors(M, x)
        assert np.all(np.diff(k) > 0)
        omega = diagonalize(edge_modified_chain(M, 1.0, x)).omega
        assert np.max(np.abs(-2.0 * np.cos(k) - omega)) <= 1e-12

    @pytest.mark.parametrize("x", [1e-160, 1e-200])
    @pytest.mark.parametrize("M", [4, 101])
    def test_nearly_cut_edges(self, M, x):
        # c = x^2/(2 - x^2) underflows to 0: the shift takes its limit without
        # a warning, and the two edge-bound roots may tie at pi/2
        k = pseudo_wavevectors(M, x)
        assert np.all(np.diff(k) >= 0)
        omega = diagonalize(edge_modified_chain(M, 1.0, x)).omega
        assert np.max(np.abs(-2.0 * np.cos(k) - omega)) <= 1e-12

    # pinned bits: the roots must not move when the bisection is restructured
    @pytest.mark.parametrize(
        "M, x, digest",
        [
            (1, 1.0, "c3f113d6cbe802411220c98356d28b3c4ce2b9b769df839bd479276aff85c18e"),
            (4, 0.5, "40edff939d4c4043e466017d18b18afb65dc281685a77fc39d30efc56e9ba173"),
            (37, 1.0, "6314b347099495d50a015c6d812f2d07ff7216dfa426b68a1f90fcb8d295f706"),
            (100, 0.48, "4e24bf62af45befa4023b4b5d4d3aab7db546bdfbbebc7237ed9794bc14faaee"),
            (101, 0.02, "3bb230aedeb6468ab988d6e6023a7caf4a8f9bd548c136f2dc3727b6032d74e8"),
            (200, 0.35, "6c8915ec31cf8a3c4d08be2f335f8d338271e6a614b033a5b70ff5d9c58296b7"),
        ],
    )
    def test_pinned_bits(self, M, x, digest):
        assert hashlib.sha256(pseudo_wavevectors(M, x).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("x", [1e-9, 1e-3, 0.02, 0.5, 1.0])
    @pytest.mark.parametrize("M", [4, 37, 100, 101, 2000])
    def test_root_is_next_to_its_sign_change(self, M, x):
        # each root is one of the two adjacent doubles that bracket the residual's sign change
        k = pseudo_wavevectors(M, x)
        n = np.arange(1, M + 1)

        def residual(k):
            return (M - 1) * k + 2.0 * qcradle.spectral._boundary_shift(k, x) - np.pi * n

        f = residual(k)
        below, above = residual(np.nextafter(k, 0.0)), residual(np.nextafter(k, np.pi))
        assert np.all((f < 0.0) & (above >= 0.0) | (below < 0.0) & (f >= 0.0))

    def test_stops_at_the_fixed_point(self, monkeypatch):
        # at x = 0.005 the brackets stop halving long before the 200 cap
        calls = []
        shift = qcradle.spectral._boundary_shift

        def counted(k, x):
            calls.append(x)
            return shift(k, x)

        monkeypatch.setattr(qcradle.spectral, "_boundary_shift", counted)
        k = pseudo_wavevectors(100, 0.005)
        assert len(calls) <= 64
        assert np.all(np.diff(k) > 0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pseudo_wavevectors(10, 0.0)
        with pytest.raises(ValueError):
            pseudo_wavevectors(10, 1.2)


class TestLinearityDeviation:
    def test_pst_is_equispaced(self):
        sp = diagonalize(pst_chain(8, 1.0))
        assert linearity_deviation(sp, (1, 8)) < 1e-10

    def test_uniform_is_not(self):
        sp = diagonalize(uniform_chain(8, 1.0))
        assert linearity_deviation(sp, (1, 8)) > 1e-2

    def test_trap_chain_quasilinear_window(self):
        sp = diagonalize(gaussian_trap_chain(100, 1.0, 50.0, 110.0))
        dev_window = linearity_deviation(sp, (1, 7))
        dev_full = linearity_deviation(sp, (1, 100))
        assert dev_window < 0.05
        assert dev_window < 0.1 * dev_full

    def test_errors(self):
        sp = diagonalize(uniform_chain(8, 1.0))
        with pytest.raises(ValueError):
            linearity_deviation(sp, (1, 2))
        with pytest.raises(ValueError):
            linearity_deviation(sp, (0, 5))
        with pytest.raises(ValueError):
            linearity_deviation(sp, (5, 5))
        with pytest.raises(ValueError, match="index_range must satisfy"):
            linearity_deviation(sp, (1.0, 5.0))
        with pytest.raises(ValueError, match="index_range must satisfy"):
            linearity_deviation(sp, (1, 5.0))
        flat = seeded_spectrum(uniform_chain(3, 1.0), np.zeros(3), np.eye(3))
        with pytest.raises(DegenerateSpectrumError):
            linearity_deviation(flat, (1, 3))


class TestModeOverlaps:
    def test_kick_weights_are_first_components(self):
        sp = diagonalize(uniform_chain(12, 1.0))
        w = mode_overlaps(sp, kick_state(12, 1))
        assert np.allclose(w, sp.g[:, 0] ** 2, rtol=0, atol=1e-14)

    def test_eigenvector_state_is_delta(self):
        sp = diagonalize(uniform_chain(9, 1.0))
        from qcradle import WaveState

        w = mode_overlaps(sp, WaveState(z=sp.g[4].astype(complex)))
        ref = np.zeros(9)
        ref[4] = 1.0
        assert np.allclose(w, ref, rtol=0, atol=1e-12)

    def test_weights_sum_to_one(self):
        sp = diagonalize(gaussian_trap_chain(100, 1.0, 50.0, 110.0))
        w = mode_overlaps(sp, gaussian_wavepacket(100, 20.0, 10.0))
        assert abs(np.sum(w) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        sp = diagonalize(uniform_chain(5, 1.0))
        with pytest.raises(ValueError):
            mode_overlaps(sp, kick_state(6, 1))
