import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

import qcradle.spectral
from qcradle import (
    ChainSpec,
    DegenerateSpectrumError,
    diagonalize,
    edge_modified_chain,
    end_amplitude,
    gaussian_trap_chain,
    gaussian_wavepacket,
    kick_state,
    linearity_deviation,
    mirror_parity,
    mirror_symmetric,
    mode_overlaps,
    peak_transfer,
    pseudo_wavevectors,
    pst_chain,
    uniform_chain,
)
from qcradle.dynamics import PEAK_COARSE_STEP, _end_abs_scan, default_window
from qcradle.spectral import _WEIGHT_FLOOR, _eigvals, _end_weights
from util import dense_eig, dense_propagate, random_chain, residual_norm, seeded_spectrum

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
        # the benchmark's chain families take the certified eigenvalue route
        sp = diagonalize(family(200))
        rep = peak_transfer(sp)
        assert abs(end_amplitude(sp, rep.peak_time)) == rep.peak_amplitude
        assert "_eigenpairs" not in vars(sp)

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


def _transfer_error(spec):
    # the transfer's eigenvalues against one full solve, relative to the
    # spectral radius; its end weights against g_{n1} g_{nM}; and whether the
    # eigenvalues alone gave the weights (no eigenvector fallback)
    sp = diagonalize(spec)
    omega, w = sp._end_modes
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
        assert np.array_equal(_end_weights(np.array([0.37]), np.array([])), [1.0])

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
        assert _end_weights(eigvalsh_tridiagonal(spec.eps, -spec.tau), spec.tau) is None
        sp = diagonalize(spec)
        omega, w = sp._end_modes
        assert np.array_equal(omega, sp.omega)
        assert np.array_equal(w, sp.g[:, 0] * sp.g[:, -1])
        rep = peak_transfer(sp)
        assert np.isfinite(rep.peak_amplitude) and 0.0 <= rep.peak_amplitude <= 1.0
        assert np.isfinite(end_amplitude(sp, 7.5))

    def test_near_tie_falls_back_to_the_eigenvectors(self):
        # the middle bond 1e-13 splits each pair of sector eigenvalues by
        # 1e-13; the sum |w_n| check refuses their weights and the
        # eigenvectors serve the transfer (the full-solve weights were
        # certified, and end_amplitude was 5.2e-12 off at |A| ~ 5e-9)
        spec = ChainSpec(M=4, tau=[1.0, 1e-13, 1.0], eps=np.zeros(4))
        assert _end_weights(_eigvals(spec), spec.tau) is None
        sp = diagonalize(spec)
        for t in (3.0, 1e6):
            exact = dense_propagate(spec, kick_state(4, 1).z, t)[-1]
            assert abs(end_amplitude(sp, t) - exact) <= 1e-15

    def test_pst2000_floor_leaves_the_scan_unchanged(self):
        # pst weights fall like 2^-M: the floor zeroes those whose scan
        # products would be subnormal, and the scan does not move a bit
        sp = diagonalize(pst_chain(2000, 1.0))
        omega, w = sp._end_modes
        raw = _end_weights(_eigvals(sp.spec), sp.spec.tau)
        assert not ((0.0 < np.abs(w)) & (np.abs(w) < _WEIGHT_FLOOR)).any()
        assert (w == 0.0).sum() > (raw == 0.0).sum()
        # the peak search's grid
        T = default_window(sp)[1]
        n = int(np.ceil(T * np.max(sp.spec.tau) / PEAK_COARSE_STEP)) + 1
        dt = T / (n - 1)
        assert np.array_equal(_end_abs_scan(omega, w, dt, n), _end_abs_scan(omega, raw, dt, n))


class TestReflectionSectors:
    @pytest.mark.parametrize("M", [100, 101])
    def test_mirror_chain_takes_two_half_size_solves(self, M, monkeypatch):
        sizes = []

        def spy(d, e):
            sizes.append(len(d))
            return eigvalsh_tridiagonal(d, e)

        monkeypatch.setattr(qcradle.spectral, "eigvalsh_tridiagonal", spy)
        diagonalize(_two_bond(M))._end_modes
        assert sorted(sizes) == [M // 2, (M + 1) // 2]

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
        omega, w = sp._end_modes
        assert np.isfinite(omega).all() and np.isfinite(w).all()
        assert np.isfinite(peak_transfer(sp).peak_amplitude)


class TestDiagonalize:
    def test_uniform3_eigenvalues(self):
        omega = diagonalize(uniform_chain(3, 1.0)).omega
        assert np.allclose(omega, [-SQRT2, 0.0, SQRT2], rtol=0, atol=1e-12)

    def test_single_site(self):
        sp = diagonalize(ChainSpec(M=1, tau=[], eps=[0.37]))
        assert np.array_equal(sp.omega, [0.37])
        assert np.array_equal(sp.g, [[1.0]])
        assert mirror_parity(sp).parity == (1,)

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
        # the signs are LAPACK's, untouched, and the same on every call
        spec = random_chain(np.random.default_rng(3), M=17)
        a = diagonalize(spec)
        b = diagonalize(spec)
        assert np.array_equal(a.g, b.g) and np.array_equal(a.omega, b.omega)
        _, v = eigh_tridiagonal(spec.eps, -spec.tau)
        assert np.array_equal(a.g, v.T)

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
        # parity labels are sign-independent: they still alternate exactly
        # on the mirror-symmetric chains
        assert mirror_parity(sp).alternating() == mirror_symmetric(spec)
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
    def test_uniform3_alternates(self):
        sig = mirror_parity(diagonalize(uniform_chain(3, 1.0)))
        assert sig.all_defined() and sig.alternating()

    def test_asymmetric_chain_undefined(self):
        spec = ChainSpec(M=3, tau=[1.0, 2.0], eps=np.zeros(3))
        sig = mirror_parity(diagonalize(spec))
        assert all(p is None for p in sig.parity)

    def test_pst5_alternating_sequence(self):
        sig = mirror_parity(diagonalize(pst_chain(5, 1.0)))
        assert len(sig.parity) == 5
        assert sig.alternating()

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
            sig = mirror_parity(sp)
            assert sig.all_defined() and sig.alternating()
            checked += 1
        assert checked >= 25

    def test_near_degenerate_flagged(self):
        # double-well chain: the weakly coupled end sites form a doublet
        # split by ~tau_edge^2, far inside the degeneracy threshold
        sig = mirror_parity(diagonalize(ChainSpec(M=4, tau=[1e-7, 1.0, 1e-7], eps=np.zeros(4))))
        assert sig.parity[1] is None and sig.parity[2] is None
        assert sig.parity[0] == 1 and sig.parity[3] == -1


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

    # pinned bits: the roots must not move when the bisection is restructured
    @pytest.mark.parametrize(
        "M, x, digest",
        [
            (1, 1.0, "c3f113d6cbe802411220c98356d28b3c4ce2b9b769df839bd479276aff85c18e"),
            (4, 0.5, "ec8dfd6c8491b7d282b316194e9308eb7be430958bc2c32485a6aaab8a60401a"),
            (37, 1.0, "a9a14aea1694d59cbad21a7b9f7bffef4101cae41a7409859592e528a550102e"),
            (100, 0.48, "f9d1ed5e1daa4f03119c5d155ab9f011c4b7c428e7903687e73748a37ad64661"),
            (101, 0.02, "28a21ee7b546ff6426520fa6098f5960c6f4dce77bd88b533e135c0636804fe1"),
            (200, 0.35, "28b2f4f375fafa6d3d72b18dfbb865433710d295407f732a5ac2269e94213841"),
        ],
    )
    def test_pinned_bits(self, M, x, digest):
        assert hashlib.sha256(pseudo_wavevectors(M, x).tobytes()).hexdigest() == digest

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
