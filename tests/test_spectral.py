import hashlib
import math
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
from qcradle.dynamics import PEAK_COARSE_STEP, PEAK_TIME_TOL, PEAK_WINDOW_FACTOR, _end_abs_scan
from qcradle.spectral import (
    _EDGE_ROUTE_M,
    _TINY,
    _WEIGHT_FLOOR,
    _edge_modes,
    _edge_phase,
    _eigvals,
    _end_weights,
    _pst_modes,
)
from util import (
    PhaseSpy,
    SolveSpy,
    dense_eig,
    dense_propagate,
    random_chain,
    residual_norm,
    seeded_spectrum,
    unfold_modes,
)

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


def _signed(w):
    # a route's weight magnitudes with the sign (-1)^(n-1) that Spectrum._end_modes applies
    return w * np.where(np.arange(w.size) % 2, -1.0, 1.0)


@pytest.mark.parametrize("M", [5, 500, 501])
@pytest.mark.parametrize("route", ["pst", "edge", "gap-pst", "gap-edge"])
def test_routes_return_ascending_rows_and_weight_magnitudes(route, M):
    # the one contract of the mode routes (Spectrum._end_modes): ascending eigenvalue rows,
    # weights >= 0 and, for these eps = 0 chains, the folded rows' sum over all M modes
    # within 64 M eps of 1.  The gap route is called here whatever the gate, as _routes
    # forces it, on the chains the other two take
    spec = pst_chain(M, 1.0) if route.endswith("pst") else edge_modified_chain(M, 1.0, 0.36, 0.68)
    if route.startswith("gap"):
        omega = _eigvals(spec)
        w = _end_weights(omega, spec.tau, (M + 1) // 2)
    else:
        omega, w = (_pst_modes if route == "pst" else _edge_modes)(spec)
    assert w is not None and w.size == (M + 1) // 2
    assert (omega[1:] > omega[:-1]).all() and (w >= 0.0).all()
    total = 2.0 * w.sum() - (w[-1] if M % 2 else 0.0)
    assert abs(total - 1.0) <= 64 * M * np.finfo(float).eps


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
        spy = SolveSpy(monkeypatch)
        tune_double(100, 1.0)
        assert (len(spy.weights), len(spy.vectors)) == (2739, 5)

    def test_pst2000_floor_leaves_the_scan_unchanged(self):
        # pst weights fall like 2^-M: the floor zeroes those of the closed form whose
        # scan products would be subnormal, and the scan does not move a bit
        sp = diagonalize(pst_chain(2000, 1.0))
        nu, _, q = sp._end_modes
        raw = 2.0 * _signed(_pst_modes(sp.spec)[1])
        assert not ((0.0 < np.abs(q)) & (np.abs(q) < 2.0 * _WEIGHT_FLOOR)).any()
        assert (q == 0.0).sum() > (raw == 0.0).sum()
        # the peak search's grid: n = 30M + 1 samples, as peak_transfer takes them
        T = peak_transfer(sp).window[1]
        n = round(PEAK_WINDOW_FACTOR / PEAK_COARSE_STEP) * sp.M + 1
        dt = T / (n - 1)
        assert np.array_equal(_end_abs_scan(nu, None, q, dt, n), _end_abs_scan(nu, None, raw, dt, n))

    @pytest.mark.parametrize(
        "spec",
        [
            _two_bond(100),
            # five equal edge bond pairs: folded, and past the edge route's four
            ChainSpec(M=2000, tau=np.r_[[0.5] * 5, np.ones(1989), [0.5] * 5], eps=np.zeros(2000)),
            gaussian_trap_chain(257, 1.0, 128.5, 282.7),
        ],
        ids=["two-bond100", "five-pairs2000", "trap257"],
    )
    def test_chunk_size_leaves_the_bits(self, spec, monkeypatch):
        # each row's sums are taken over that row alone, whatever the chunk
        # of rows: one row per chunk (M entries), three rows with a partial
        # last chunk (3M + 1), and the default
        spy = SolveSpy(monkeypatch)
        diagonalize(spec)._end_modes
        monkeypatch.undo()
        (omega, tau, rows), M = spy.weights[0], spec.M
        default = _end_weights(omega, tau, rows)
        assert default is not None and rows % 3
        for chunk in (M, 3 * M + 1):
            monkeypatch.setattr(qcradle.spectral, "_GAP_CHUNK", chunk)
            assert np.array_equal(_end_weights(omega, tau, rows), default)


def _edge_chains():
    # one and two modified bond pairs, x and y down to 1e-9, even and odd M, and an end
    # dimer (y < x) of the tuner grid; at M = 2 and 3 every chain is uniform (one bond;
    # two equal bonds)
    params = [
        pytest.param(uniform_chain(2, 1.0), id="uniform2"),
        pytest.param(edge_modified_chain(3, 1.0, 0.5), id="x0.5-3"),
        pytest.param(edge_modified_chain(3, 1.0, 1e-9), id="x1e-9-3"),
        pytest.param(edge_modified_chain(300, 1.0, 0.46, 0.06), id="0.46-0.06-300"),
    ]
    for M in (100, 101, 500, 2000):
        for xy in ((1.0,), (0.5,), (1e-3,), (1e-9,), (0.36, 0.68), (1.0, 0.02), (1e-9, 0.5), (1e-9, 1e-9)):
            params.append(pytest.param(edge_modified_chain(M, 1.0, *xy), id="-".join(f"{v:g}" for v in xy) + f"-{M}"))
    return params


def _routes(spec, monkeypatch):
    # the transfer spectrum of the LAPACK route (_eigvals, _end_weights and their
    # eigenvector fallback), then of the edge route, whatever the gate; the pst route,
    # which takes the chains of M = 2 and 3 with equal bonds, is off
    spectra = []
    monkeypatch.setattr(qcradle.spectral, "_pst_modes", lambda spec: None)
    for least in (spec.M + 1, 2):
        monkeypatch.setattr(qcradle.spectral, "_EDGE_ROUTE_M", least)
        spectra.append(diagonalize(spec))
        spectra[-1]._end_modes  # solved now, under this gate
    monkeypatch.undo()
    return spectra


def _second_order(M, x, times):
    # A_M(t) of edge_modified_chain(M, 1, x) to O(x^4) relative, from the E_k and psi_k of the
    # uniform bulk of L = M - 2 sites: A(t) = -x^2 sum_k psi_k(1) psi_k(L) (-i t/E_k + (1 -
    # e^(-i E_k t))/E_k^2), whose term tends to t^2/2 at the zero mode E_k = 0 of an odd bulk
    L = M - 2
    m = np.arange(1, L + 1)
    a = np.pi * m / (L + 1)
    zero = 2 * m == L + 1
    E = np.where(zero, 1.0, -2.0 * np.cos(a))
    psi = 2.0 / (L + 1) * np.sin(a) ** 2 * (-1.0) ** (m - 1)  # psi_k(1) psi_k(L)
    terms = [np.where(zero, 0.5 * t * t, -1j * t / E + (1.0 - np.exp(-1j * E * t)) / E**2) for t in times]
    return [-x * x * np.sum(psi * term) for term in terms]


class TestEdgeModes:
    @pytest.mark.parametrize("spec", _edge_chains())
    def test_match_the_gap_route(self, spec, monkeypatch):
        # the route certifies every chain here; the spectra agree to round-off and the
        # transfers to 1e-12.  The peak time agrees to the refine tolerance where the
        # peak stands above round-off (on a profile flat to round-off any time is a peak)
        assert _edge_modes(spec) is not None
        gap, edge = _routes(spec, monkeypatch)
        omega_gap, _ = unfold_modes(gap._end_modes, spec.M)
        omega_edge, _ = unfold_modes(edge._end_modes, spec.M)
        assert np.max(np.abs(omega_edge - omega_gap)) <= 1e-14
        a, b = peak_transfer(gap), peak_transfer(edge)
        assert abs(a.peak_amplitude - b.peak_amplitude) <= 1e-12 and a.samples == b.samples
        if a.peak_amplitude > 1e-9:
            assert abs(a.peak_time - b.peak_time) <= PEAK_TIME_TOL
        for t in (0.5, 7.0, a.peak_time):
            assert abs(end_amplitude(gap, t) - end_amplitude(edge, t)) <= 1e-12

    @pytest.mark.parametrize("x", [1e-16, 1e-100, 1e-160, 1e-200, 1e-300])
    @pytest.mark.parametrize("M", [500, 2000])
    def test_nearly_cut_edge_is_second_order(self, M, x, monkeypatch):
        # the end mode's root, q ~ x^2, is reached by bisecting in log q; from x ~ 1e-154 it
        # is below the normal range and the end pair is an exact zero pair.  The transfer is
        # x^2 times the bulk's to O(x^4), to 1e-12 of its peak or, where that peak is below
        # the normal range, to the least normal double.  The gap route's eigenvector
        # fallback, accurate only to eps, peaked at 6.8e-200 at t = 259 for x = 1e-100,
        # M = 500, where this peak is 1.0e-197 at t = 750
        spy = SolveSpy(monkeypatch)
        sp = diagonalize(edge_modified_chain(M, 1.0, x))
        times = np.r_[0.7, 13.0, np.linspace(1.0, 1.5 * M, 20)]
        ref = _second_order(M, x, times)
        scale = max(map(abs, ref))
        tol = max(1e-12 * scale, _TINY)
        for t, r in zip(times, ref):
            assert abs(end_amplitude(sp, t) - r) <= tol
        rep = peak_transfer(sp)
        assert abs(rep.peak_amplitude - scale) <= tol
        assert spy.calls == 0 and "_eigenpairs" not in vars(sp)

    @pytest.mark.parametrize("x", [1e-30, 1e-50, 1e-100, 1e-300])
    @pytest.mark.parametrize("M", [301, 2001])
    def test_odd_nearly_cut_edge(self, M, x, monkeypatch):
        # the end pair binds to the bulk's zero mode at q ~ x, which the bracket's geometric
        # bisection reaches in a few steps (at x = 1e-300 the product of its two ends would
        # underflow: the mean takes their square roots).  The spectrum matches the sector
        # solve; the transfer is O(x^2 t^2), and the route's mode sum, which cancels weights
        # of order 1, returns it to their round-off
        spec = edge_modified_chain(M, 1.0, x)
        phase = PhaseSpy(monkeypatch)
        modes = _edge_modes(spec)
        assert modes is not None and phase.calls <= 32
        omega = _eigvals(spec)
        nu = modes[0]
        assert np.max(np.abs(np.concatenate([nu, -nu[::-1][1:]]) - omega)) <= 1e-14 * np.max(np.abs(omega))
        spy = SolveSpy(monkeypatch)
        sp = diagonalize(spec)
        times = np.r_[0.7, 13.0, np.linspace(1.0, 1.5 * M, 20)]
        for t, r in zip(times, _second_order(M, x, times)):
            assert abs(end_amplitude(sp, t) - r) <= 1e-15
        assert peak_transfer(sp).peak_amplitude <= 1e-15
        assert spy.calls == 0 and "_eigenpairs" not in vars(sp)

    @pytest.mark.parametrize("M", [3, 101, 2001])
    def test_odd_chain_keeps_its_zero_mode(self, M, monkeypatch):
        # the zero mode comes last, at exactly +0.0, with its unpaired weight in p
        spec = edge_modified_chain(M, 1.0, 0.5)
        gap, edge = _routes(spec, monkeypatch)
        nu, p, q = edge._end_modes
        assert q is None and nu.size == p.size == (M + 1) // 2
        assert nu[-1] == 0.0 and not np.signbit(nu[-1]) and (nu[:-1] < 0.0).all()
        assert abs(p[-1] - gap._end_modes[1][-1]) <= 1e-14

    @pytest.mark.parametrize(
        "spec",
        [
            uniform_chain(2000, 1.0),
            edge_modified_chain(2000, 1.0, 0.5, 0.8),
            edge_modified_chain(501, 1.0, 0.36, 0.68),
            edge_modified_chain(2000, 1.0, 1e-4),
            edge_modified_chain(2000, 1.0, 1e-6),
            edge_modified_chain(2000, 1.0, 1e-9),
            edge_modified_chain(300, 1.0, 0.46, 0.06),
        ],
        ids=["uniform2000", "two-bond2000", "two-bond501", "x1e-4", "x1e-6", "x1e-9", "dimer300"],
    )
    def test_routed_chain_calls_no_lapack(self, spec, monkeypatch):
        # the gate takes these chains; the weakest edges took the eigenvectors before, and
        # the end dimer (y < x) takes the route too
        spy = SolveSpy(monkeypatch)
        assert spec.M >= _EDGE_ROUTE_M
        sp = diagonalize(spec)
        rep = peak_transfer(sp)
        assert abs(end_amplitude(sp, rep.peak_time)) == rep.peak_amplitude
        assert spy.calls == 0 and "_eigenpairs" not in vars(sp)

    @pytest.mark.parametrize(
        "spec, solved",
        [
            # the certificate refuses: the two end dimers' modes tie (split ~1e-18), and so
            # do their roots; their weights miss the sum |w| = 1 check
            (edge_modified_chain(2000, 1.0, 0.3, 1e-9), True),
            (edge_modified_chain(500, 1.0, 0.5, 1e-9), True),
            # an odd chain's subnormal edge: its end pair's root (q ~ x) is below the normal
            # range, comes out 0 and ties the zero mode
            (edge_modified_chain(501, 1.0, 1e-310), True),
            # not of the route's shape, refused before any root is sought: an edge bond
            # 1.5 times the bulk (it binds modes outside the band), pst (every bond its
            # own; it takes the pst route), five bond pairs, a mirror-broken end, on-site
            # offsets
            (ChainSpec(M=2000, tau=np.r_[1.5, np.ones(1997), 1.5], eps=np.zeros(2000)), False),
            (pst_chain(2000, 1.0), False),
            (ChainSpec(M=500, tau=np.r_[[0.5] * 5, np.ones(489), [0.5] * 5], eps=np.zeros(500)), False),
            (ChainSpec(M=500, tau=np.r_[0.5, np.ones(497), 0.6], eps=np.zeros(500)), False),
            (gaussian_trap_chain(500, 1.0, 250.5, 550.0), False),
        ],
        ids=["tied-roots", "weight-sum", "nearly-cut", "strong-edge", "pst", "five-pairs", "non-mirror", "trap"],
    )
    def test_refusals_keep_the_gap_route_bits(self, spec, solved, monkeypatch):
        phase = PhaseSpy(monkeypatch)
        assert spec.M >= _EDGE_ROUTE_M and _edge_modes(spec) is None and bool(phase.calls) == solved
        pst = _pst_modes(spec)
        if pst is None:
            ref = _routes(spec, monkeypatch)[0]._end_modes
        else:  # an even chain's closed-form modes, signed, floored and folded
            omega, w = pst[0], _signed(pst[1])
            ref = omega, None, np.where(np.abs(w) < _WEIGHT_FLOOR, 0.0, 2.0 * w)
        for got, ref in zip(diagonalize(spec)._end_modes, ref):
            assert (got is None and ref is None) or got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("M", [100, 301])
    def test_tuner_grid_converges(self, M, monkeypatch):
        # the tuner grid's end-dimer corner, a second bond y <= 0.14 weaker than the first,
        # where Newton steps inside a root's bracket barely shrink it: each root iteration
        # converges within 32 phase calls, (0.2, 0.1) at M = 100 included
        grid = np.linspace(0.02, 1.0, 50)
        phase = PhaseSpy(monkeypatch)
        for x in grid:
            for y in grid[grid <= 0.14]:
                before = phase.calls
                _, converged = qcradle.spectral._edge_roots(M, np.array([x, y]))
                assert converged and phase.calls - before <= 32, (x, y)

    def test_short_chains_keep_the_gap_route(self, monkeypatch):
        # below the measured crossover LAPACK is the cheaper route: the tuner's chains keep it
        spy = SolveSpy(monkeypatch)
        diagonalize(edge_modified_chain(_EDGE_ROUTE_M - 1, 1.0, 0.36, 0.68))._end_modes
        diagonalize(edge_modified_chain(100, 1.0, 0.36, 0.68))._end_modes
        assert len(spy.weights) == 2

    @pytest.mark.parametrize("x", [1e-6, 0.02, 0.5, 1.0])
    def test_phase_of_one_bond_is_the_closed_form(self, x):
        # phi = psi - k with tan psi = x^2/(2 - x^2) tan k, psi in (0, pi) (Wojcik et al. 2005),
        # with cos k and sin k taken from q = pi/2 - k, as the phase takes them
        q = 0.5 * np.pi - np.linspace(0.01, np.pi - 0.01, 101)
        j, delta = _edge_phase(q, np.array([x]))[:2]
        psi = 0.5 * np.pi - np.arctan(np.sin(q) / (np.cos(q) * x * x / (2.0 - x * x)))
        assert np.max(np.abs(0.5 * np.pi * j + delta - (psi - (0.5 * np.pi - q)))) <= 1e-12

    @pytest.mark.parametrize("edge", [[], [0.5], [0.36, 0.68], [1.0, 0.02], [0.3, 0.7, 0.9, 0.2]])
    def test_phase_slope_and_norms(self, edge):
        # dphi/dk against a central difference, and norm and R^2 against the recurrence
        # run out to a bulk site by hand
        edge = np.array(edge)
        k = np.linspace(0.2, 1.5, 14)
        h = 1e-6
        phase = [0.5 * np.pi * j + d for j, d in (_edge_phase(0.5 * np.pi - k - s, edge)[:2] for s in (h, -h))]
        _, _, slope, norm, amp2 = _edge_phase(0.5 * np.pi - k, edge)
        assert np.max(np.abs(slope - (phase[0] - phase[1]) / (2 * h))) <= 1e-7
        b = edge.size
        bonds = np.r_[edge, np.ones(3)]
        g = [np.zeros_like(k), np.ones_like(k)]
        for i in range(b + 3):
            g.append((2.0 * np.cos(k) * g[-1] - (bonds[i - 1] if i else 0.0) * g[-2]) / bonds[i])
        g = np.array(g[1:])  # g_1 .. g_{b+4}
        assert np.allclose(norm, (g[:b] ** 2).sum(axis=0), rtol=1e-13, atol=0)
        # the bulk wave's amplitude from two later bulk sites
        r2 = g[b + 2] ** 2 + ((g[b + 3] - g[b + 2] * np.cos(k)) / np.sin(k)) ** 2
        assert np.allclose(amp2, r2, rtol=1e-12, atol=0)


def _pst_amplitude(M, Omega, t):
    # A_M(t) = (i sin Omega t)^(M - 1) of the pst chain, from i^(M - 1) and one real power
    return 1j ** ((M - 1) % 4) * math.sin(Omega * t) ** (M - 1)


PST_TIMES = (0.4, 1.2, 0.5 * np.pi, 2.9, 7.0)  # Omega t, across the first peak and past it


class TestPstModes:
    @pytest.mark.parametrize("Omega", [0.37, 1.0, 3.0])
    @pytest.mark.parametrize("M", [2, 3, 50, 51, 2000, 2001, 20000])
    def test_end_amplitude_is_the_closed_form(self, M, Omega, monkeypatch):
        # 4.4e-15 at most (M = 20000, Omega = 0.37)
        spy = SolveSpy(monkeypatch)
        sp = diagonalize(pst_chain(M, Omega))
        for x in PST_TIMES:
            assert abs(end_amplitude(sp, x / Omega) - _pst_amplitude(M, Omega, x / Omega)) <= 1e-13
        assert spy.calls == 0

    @pytest.mark.parametrize("Omega", [0.37, 1.0, 3.0])
    @pytest.mark.parametrize("M", [2, 3, 50, 51, 2000, 2001])
    def test_gap_route_meets_the_closed_form(self, M, Omega, monkeypatch):
        # the route it replaces, on the same check: 1.9e-14 at most up to M = 51, but
        # 1.33e-12 and 1.42e-12 at the peak (Omega t = pi/2, Omega = 1) for M = 2000 and 2001
        monkeypatch.setattr(qcradle.spectral, "_pst_modes", lambda spec: None)
        spy = SolveSpy(monkeypatch)
        sp = diagonalize(pst_chain(M, Omega))
        for x in PST_TIMES:
            assert abs(end_amplitude(sp, x / Omega) - _pst_amplitude(M, Omega, x / Omega)) <= 2e-12
        assert len(spy.weights) == 1 and not spy.vectors

    @pytest.mark.parametrize("M", [2, 3, 4, 5, 50, 51, 2000, 2001])
    def test_modes_are_the_krawtchouk_spectrum(self, M):
        # omega_n = 2n - M - 1 over the lower half, an odd chain's zero mode last as +0.0
        # (the bytes tell it from -0.0), and |w_n| = C(M - 1, n - 1) / 2^(M-1), each exact
        # weight correctly rounded
        omega, w = _pst_modes(pst_chain(M, 1.0))
        assert omega.tobytes() == np.arange(1 - M, 1, 2, dtype=float).tobytes()
        exact = [math.comb(M - 1, k) / 2 ** (M - 1) for k in range(omega.size)]
        assert np.max(np.abs(w - exact)) <= 1e-16

    @pytest.mark.parametrize("Omega", [1e-150, 1e-3, 0.37, 1.0, 3.0, 1e150])
    def test_takes_pst_chains_at_every_scale(self, Omega):
        for M in (2, 3, 4, 7, 100, 101, 2000, 20000):
            omega, _ = _pst_modes(pst_chain(M, Omega))
            assert abs(omega[0] - Omega * (1 - M)) <= 4 * np.finfo(float).eps * Omega * (M - 1)

    @pytest.mark.parametrize("M", [2, 3, 500, 2000, 2001])
    def test_transfer_calls_no_lapack(self, M, monkeypatch):
        spy = SolveSpy(monkeypatch)
        sp = diagonalize(pst_chain(M, 1.0))
        rep = peak_transfer(sp)
        assert abs(rep.peak_amplitude - 1.0) <= 1e-12
        assert spy.calls == 0 and "_eigenpairs" not in vars(sp)

    @pytest.mark.parametrize(
        "spec",
        [
            # one bond off by 1e-12 relative, far past the 4 eps the route allows
            ChainSpec(M=2000, tau=pst_chain(2000, 1.0).tau * np.r_[np.ones(700), 1 + 1e-12, np.ones(1298)],
                      eps=np.zeros(2000)),
            # pst bonds with on-site offsets
            ChainSpec(M=50, tau=pst_chain(50, 1.0).tau, eps=np.full(50, 0.25)),
            ChainSpec(M=1, tau=[], eps=[0.0]),
            # the tuner's chain, refused by its second bond
            edge_modified_chain(100, 1.0, 0.36, 0.68),
            # a subnormal scale, whose 4 eps tolerance would underflow
            pst_chain(3, 1e-310),
        ],
        ids=["bond", "eps", "one-site", "tuner", "subnormal"],
    )
    def test_refusals_keep_the_gap_route_bits(self, spec, monkeypatch):
        assert _pst_modes(spec) is None
        got = diagonalize(spec)._end_modes
        monkeypatch.setattr(qcradle.spectral, "_pst_modes", lambda spec: None)
        for a, b in zip(got, diagonalize(spec)._end_modes):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_other_chains_are_refused_in_constant_time(self):
        # the second bond refuses them: neither eps nor the bonds as an array are read
        class Bonds(np.ndarray):
            def __array_ufunc__(self, *a, **k):
                raise AssertionError("an O(M) pass over the bonds")

        for spec in (edge_modified_chain(100, 1.0, 0.36, 0.68), uniform_chain(100, 1.0)):
            stand_in = type("Spec", (), {"M": spec.M, "tau": spec.tau.view(Bonds)})
            assert _pst_modes(stand_in) is None


class TestReflectionSectors:
    @staticmethod
    def _solve_sizes(spec, monkeypatch):
        # the solves of _eigvals itself, which a long edge chain's transfer
        # skips (TestEdgeModes)
        spy = SolveSpy(monkeypatch)
        _eigvals(spec)
        monkeypatch.undo()
        return sorted(spy.values)

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
        # an eps = 0 chain, here tau = [1, 2, 1.5], gets the full solve's lower half and its mirror
        rng = np.random.default_rng(18)
        specs = [gaussian_trap_chain(100, 1.0, 50.0, 110.0), ChainSpec(M=4, tau=[1.0, 2.0, 1.5], eps=np.zeros(4))]
        specs += [random_chain(rng) for _ in range(20)]
        for spec in specs:
            assert spec.M == 1 or not mirror_symmetric(spec)
            full = eigvalsh_tridiagonal(spec.eps, -spec.tau)
            if not spec.eps.any():
                lower = full[: spec.M // 2]
                full = np.concatenate([lower, np.zeros(spec.M % 2), -lower[::-1]])
            assert np.array_equal(_eigvals(spec), full)

    @pytest.mark.parametrize("M", [11, 101])
    def test_odd_nearly_cut_sectors_reach_no_output(self, M):
        # below the edge route's gate LAPACK's values-only solve of edge_modified_chain(M, 1,
        # 1e-160), whose bond squares to a subnormal, is off by up to 5e-5: the weights refuse
        # those eigenvalues, and the transfer is the bulk's x^2 = 1e-320 to the least normal double
        spec = edge_modified_chain(M, 1.0, 1e-160)
        assert _end_weights(_eigvals(spec), spec.tau, (M + 1) // 2) is None
        sp = diagonalize(spec)
        times = (1.0, 7.5, 1.5 * M)
        for t, r in zip(times, _second_order(M, 1e-160, times)):
            assert abs(end_amplitude(sp, t) - r) <= _TINY

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

    @pytest.mark.parametrize("x", [1e-310, 5e-324])
    @pytest.mark.parametrize("M", [4, 101])
    def test_subnormal_edges(self, M, x):
        # the phase's recurrence divides by no bond, so it neither overflows nor
        # underflows: the roots are the cut chain's, with no warning
        k = pseudo_wavevectors(M, x)
        assert np.all(np.diff(k) >= 0)
        omega = diagonalize(edge_modified_chain(M, 1.0, x)).omega
        assert np.max(np.abs(-2.0 * np.cos(k) - omega)) <= 1e-12

    # pinned bits: the roots must not move when the iteration is restructured
    @pytest.mark.parametrize(
        "M, x, digest",
        [
            (1, 1.0, "c3f113d6cbe802411220c98356d28b3c4ce2b9b769df839bd479276aff85c18e"),
            (4, 0.5, "40edff939d4c4043e466017d18b18afb65dc281685a77fc39d30efc56e9ba173"),
            (37, 1.0, "5f9d5c23097f71e6840f6fd84ab9586c8b59e3214e0ab6e1fe27e4cd7fa06895"),
            (100, 0.48, "9fe4aac2d3b2c3b9cf1597bec0ace5a33a5d66c521605770f518b021803f3b55"),
            (101, 0.02, "52ceba07ce0483669d34ab5a8837ad4cbf752eeaedf89b1040f3f4f0a24ed1f7"),
            (200, 0.35, "305818f2e7000736e2c03292dda727c4e5531c991789aa9413042212df25ef9f"),
        ],
    )
    def test_pinned_bits(self, M, x, digest):
        assert hashlib.sha256(pseudo_wavevectors(M, x).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("x", [1e-9, 1e-3, 0.02, 0.5, 1.0])
    @pytest.mark.parametrize("M", [4, 37, 100, 101, 2000])
    def test_root_is_next_to_its_sign_change(self, M, x):
        # each root lies within 8 ulp(pi/2) of the residual's sign change
        k = pseudo_wavevectors(M, x)
        n = np.arange(1, M + 1)
        h = 8.0 * np.spacing(0.5 * np.pi)

        def residual(k):
            j, delta = _edge_phase(0.5 * np.pi - k, np.array([x]))[:2]
            return (M + 1) * k + np.pi * j + 2.0 * delta - np.pi * n

        assert np.all((residual(k - h) < 0.0) & (residual(k + h) > 0.0))

    def test_stops_at_the_fixed_point(self, monkeypatch):
        # at x = 0.005 every root meets the stop rule in a few Newton steps
        phase = PhaseSpy(monkeypatch)
        k = pseudo_wavevectors(100, 0.005)
        assert phase.calls <= 64
        assert np.all(np.diff(k) > 0)

    def test_converges_over_the_whole_range(self, monkeypatch):
        # one edge bond from 1 down to the least subnormal, at every M to 40 and across the
        # edge route's sizes: the root iteration converges within 32 phase calls without a
        # warning, and the roots are finite and in order; for M <= 301, every fourth x, they
        # give the eigenvalues of one full solve
        Ms = [*range(1, 41), 50, 99, 100, 101, 199, 200, 201, 299, 300, 301, 500, 501, 1000, 1001, 2000, 2001]
        xs = [1.0, 0.9, 0.7, 0.5, 0.48, 0.35, 0.2, 0.1, 0.05, 0.02, 0.012, 0.005, 1e-3, 1e-4]
        xs += [1e-6, 1e-8, 1e-9, 1e-12, 1e-15, 1e-16, 1e-30, 1e-50, 1e-100, 1e-154, 1e-160, 1e-200, 1e-310, 5e-324]
        roots, converged = qcradle.spectral._edge_roots, []

        def recorded(*args):
            q, ok = roots(*args)
            converged.append(ok)
            return q, ok

        monkeypatch.setattr(qcradle.spectral, "_edge_roots", recorded)
        phase = PhaseSpy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M in Ms:
                for i, x in enumerate(xs):
                    before = phase.calls
                    k = pseudo_wavevectors(M, x)
                    assert converged.pop() and phase.calls - before <= 32
                    assert k.size == M and np.isfinite(k).all() and (np.diff(k) >= 0.0).all()
                    if 3 <= M <= 301 and i % 4 == 0:
                        omega = diagonalize(edge_modified_chain(M, 1.0, x)).omega
                        assert np.max(np.abs(-2.0 * np.cos(k) - omega)) <= 1e-12

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
        refusals = [
            ((1, 2), "index_range[1] must be an integer in 3..8, got 2"),
            ((0, 5), "index_range[0] must be an integer in 1..6, got 0"),
            ((5, 5), "index_range[1] must be an integer in 7..8, got 5"),
            ((1.0, 5.0), "index_range[0] must be an integer in 1..6, got 1.0"),
            ((1, 5.0), "index_range[1] must be an integer in 3..8, got 5.0"),
        ]
        for index_range, message in refusals:
            with pytest.raises(ValueError) as info:
                linearity_deviation(sp, index_range)
            assert str(info.value) == message
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
