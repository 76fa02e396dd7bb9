import math
import tracemalloc

import numpy as np
import pytest

from qcradle import (
    TooLargeError,
    ChainSpec,
    diagonalize,
    edge_exposure,
    edge_modified_chain,
    end_amplitude,
    evolution_grid,
    evolve,
    gaussian_trap_chain,
    gaussian_wavepacket,
    kick_state,
    mirror_parity,
    mirror_symmetric,
    mode_overlaps,
    peak_transfer,
    pst_chain,
    revival_fidelity,
    uniform_chain,
)
from qcradle.dynamics import _end_abs, _end_abs_scan, default_window
from util import dense_propagate, random_chain, seeded_spectrum


def _spectrum(M=10, tau=1.0):
    return diagonalize(uniform_chain(M, tau))


@pytest.fixture(scope="module")
def spectrum2000():
    return _spectrum(2000)


class TestEvolve:
    def test_two_site_rabi(self):
        # M=2, tau=1: omega = -+1, |A_2(t)| = |sin t|
        sp = _spectrum(2)
        kick = kick_state(2, 1)
        for t in (0.3, 1.1, np.pi / 2, 4.0):
            assert abs(abs(evolve(sp, kick, t).z[1]) - abs(np.sin(t))) < 1e-12
        assert abs(abs(evolve(sp, kick, np.pi / 2).z[1]) - 1.0) < 1e-12

    def test_identity_at_zero(self):
        sp = _spectrum(7)
        state = gaussian_wavepacket(7, 3.0, 2.0)
        assert np.allclose(evolve(sp, state, 0.0).z, state.z, rtol=0, atol=1e-14)

    def test_pst3_half_period(self):
        sp = diagonalize(pst_chain(3, 1.0))
        z = evolve(sp, kick_state(3, 1), np.pi / 2).z
        assert abs(abs(z[2]) - 1.0) < 1e-10

    def test_group_property_and_reversal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = random_chain(rng)
            sp = diagonalize(spec)
            state = kick_state(spec.M, int(rng.integers(1, spec.M + 1)))
            t1, t2 = rng.uniform(-5, 5, size=2)
            once = evolve(sp, evolve(sp, state, t1), t2).z
            direct = evolve(sp, state, t1 + t2).z
            assert np.max(np.abs(once - direct)) < 1e-10
            back = evolve(sp, evolve(sp, state, t1), -t1).z
            assert np.max(np.abs(back - state.z)) < 1e-10

    def test_against_dense_propagator(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            spec = random_chain(rng)
            sp = diagonalize(spec)
            state = gaussian_wavepacket(spec.M, 1 + 0.5 * spec.M, 1.0 + spec.M / 4)
            t = float(rng.uniform(0, 8))
            ref = dense_propagate(spec, state.z, t)
            assert np.max(np.abs(evolve(sp, state, t).z - ref)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(_spectrum(5), kick_state(6, 1), 1.0)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_time_must_be_finite(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            evolve(_spectrum(10), kick_state(10, 1), t)


class TestEvolutionGrid:
    def test_endpoint_semantics(self):
        sp = _spectrum(6)
        state = kick_state(6, 1)
        grid = evolution_grid(sp, state, 3.7, 2)
        assert np.array_equal(grid.times, [0.0, 3.7])
        assert np.allclose(grid.prob[0], state.probabilities(), rtol=0, atol=1e-12)
        assert np.allclose(grid.prob[1], evolve(sp, state, 3.7).probabilities(), rtol=0, atol=1e-12)

    def test_unitarity_rows(self):
        sp = diagonalize(pst_chain(31, 1.0))
        grid = evolution_grid(sp, kick_state(31, 1), np.pi, 200)
        assert np.max(np.abs(grid.prob.sum(axis=1) - 1.0)) < 1e-9

    def test_pst_full_period_revival(self):
        sp = diagonalize(pst_chain(31, 1.0))
        grid = evolution_grid(sp, kick_state(31, 1), np.pi, 64)
        assert np.max(np.abs(grid.prob[-1] - grid.prob[0])) < 1e-8

    @pytest.mark.parametrize("t_max", [0.0, np.inf, np.nan])
    def test_t_max_must_be_finite_and_positive(self, t_max):
        with pytest.raises(ValueError, match="t_max must be finite and > 0"):
            evolution_grid(_spectrum(6), kick_state(6, 1), t_max, 10)

    @pytest.mark.parametrize("steps", [1, 2.5, np.float64(3.0), "3"], ids=["one", "float", "float64", "str"])
    def test_steps_must_be_an_integer_at_least_two(self, steps):
        with pytest.raises(ValueError, match=r"steps must be an integer >= 2"):
            evolution_grid(_spectrum(6), kick_state(6, 1), 1.0, steps)
        grid = evolution_grid(_spectrum(6), kick_state(6, 1), 1.0, np.int64(3))
        assert grid.prob.shape == (3, 6)

    def test_cell_cap(self):
        sp = _spectrum(100)
        with pytest.raises(TooLargeError):
            evolution_grid(sp, kick_state(100, 1), 10.0, 2000)
        grid = evolution_grid(sp, kick_state(100, 1), 10.0, 2000, max_cells=200_000)
        assert grid.prob.shape == (2000, 100)

    def test_uniform_bounce_pattern_attenuates(self):
        # kick arrives at the far end near t ~ M/2 and echoes back weaker
        sp = _spectrum(100)
        grid = evolution_grid(sp, kick_state(100, 1), 220.0, 440)
        t, far, near = grid.times, grid.prob[:, -1], grid.prob[:, 0]
        i = int(np.argmax(far))
        assert 45 < t[i] < 65
        echo = near[t > 80].max()
        assert 0.05 < echo < far[i]

    def test_invalid_grid(self):
        sp = _spectrum(4)
        with pytest.raises(ValueError):
            evolution_grid(sp, kick_state(4, 1), 1.0, 1)
        with pytest.raises(ValueError):
            evolution_grid(sp, kick_state(4, 1), -1.0, 5)


class TestEndAmplitude:
    def test_pst_half_period_modulus_one(self):
        for M in (4, 9, 20):
            sp = diagonalize(pst_chain(M, 1.0))
            assert abs(abs(end_amplitude(sp, np.pi / 2)) - 1.0) < 1e-8

    def test_zero_time_vanishes(self):
        assert abs(end_amplitude(_spectrum(8), 0.0)) < 1e-12

    def test_matches_evolution_route(self):
        # the parity reduction presumes a simple spectrum; double-well
        # doublets mix eigenvector parity at the eps*width/gap level, so
        # near-degenerate draws are excluded like everywhere else
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 25:
            spec = random_chain(rng, M=int(rng.integers(2, 20)), symmetric=True)
            sp = diagonalize(spec)
            width = max(sp.omega[-1] - sp.omega[0], 1e-300)
            if spec.M > 1 and np.min(np.diff(sp.omega)) < 1e-4 * width:
                continue
            t = float(rng.uniform(0, 10))
            via_evolve = abs(evolve(sp, kick_state(spec.M, 1), t).z[-1])
            assert abs(abs(end_amplitude(sp, t)) - via_evolve) < 1e-10
            checked += 1

    def test_uniform50_first_peak(self):
        sp = _spectrum(50)
        rep = peak_transfer(sp)
        amp = abs(end_amplitude(sp, rep.peak_time))
        assert amp < 1.0
        assert abs(amp - rep.peak_amplitude) < 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            uniform_chain(50, 1.0),
            pst_chain(21, 1.0),
            edge_modified_chain(100, 1.0, 0.5, 0.8),
            uniform_chain(101, 1.0),
        ],
        ids=["uniform50", "pst21", "two-bond100", "uniform101"],
    )
    def test_equals_peak_amplitude_exactly(self, spec):
        # end_amplitude and the peak search share one weight definition
        sp = diagonalize(spec)
        rep = peak_transfer(sp)
        assert abs(end_amplitude(sp, rep.peak_time)) == rep.peak_amplitude

    def test_asymmetric_chain(self):
        # the mode sum needs no mirror symmetry: it matches the dense
        # propagator, and the peak search, on chains without it
        rng = np.random.default_rng(37)
        specs = [ChainSpec(M=4, tau=[1.0, 2.0, 1.5], eps=np.zeros(4))]
        specs += [random_chain(rng, M=int(rng.integers(2, 30))) for _ in range(10)]
        for spec in specs:
            assert not mirror_symmetric(spec)
            sp = diagonalize(spec)
            t = float(rng.uniform(0, 10))
            ref = dense_propagate(spec, kick_state(spec.M, 1).z, t)[-1]
            assert abs(end_amplitude(sp, t) - ref) < 1e-12
            rep = peak_transfer(sp)
            assert abs(end_amplitude(sp, rep.peak_time)) == rep.peak_amplitude

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_time_must_be_finite(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            end_amplitude(_spectrum(10), t)


class TestPeakTransfer:
    def test_pst21_window(self):
        # tau_max = sqrt(110) puts the window end near 3.0: it holds the first
        # perfect transfer at pi/2 and not the next one at 3 pi/2
        rep = peak_transfer(diagonalize(pst_chain(21, 1.0)))
        assert rep.window[1] < 3 * np.pi / 2
        assert rep.peak_amplitude > 1.0 - 1e-8
        assert abs(rep.peak_time - np.pi / 2) < 1e-5

    def test_two_site_closed_form(self):
        # |A_2(t)| = |sin t| on the window (0, 3.0)
        rep = peak_transfer(_spectrum(2))
        assert abs(rep.peak_time - np.pi / 2) < 1e-6
        assert rep.peak_amplitude > 1.0 - 1e-10

    def test_uniform100_attenuated_peak(self):
        # frozen from a dense scan of the default window; the transmitted
        # probability |A_M|^2 ~ 0.287 while the modulus stays near 0.54
        rep = peak_transfer(_spectrum(100))
        assert abs(rep.peak_amplitude - 0.535918) < 5e-4
        assert abs(rep.peak_time - 52.256) < 0.05

    def test_deterministic(self):
        sp = _spectrum(30)
        a = peak_transfer(sp)
        b = peak_transfer(sp)
        assert a == b

    @pytest.mark.parametrize(
        "spec",
        [
            uniform_chain(1, 1.0),
            uniform_chain(7, 0.3),
            uniform_chain(500, 2.0),
            pst_chain(2, 1.0),
            pst_chain(33, 0.7),
            edge_modified_chain(5, 1.0, 0.5, 0.8),
            edge_modified_chain(100, 1.3, 0.36, 0.64),
        ],
        ids=["uniform1", "uniform7", "uniform500", "pst2", "pst33", "two-bond5", "two-bond100"],
    )
    def test_window_and_scan_size_follow_from_the_chain(self, spec):
        # the one window (0, 1.5 M/tau_max) and 30M + 1 or 30M + 2 coarse
        # samples, plus the golden probes and the coarse winner's re-evaluation
        tau_max = float(np.max(spec.tau)) if spec.M > 1 else 1.0
        rep = peak_transfer(diagonalize(spec))
        assert rep.window == (0.0, 1.5 * spec.M / tau_max)
        assert 30 * spec.M + 1 < rep.samples < 30 * spec.M + 64

    @pytest.mark.parametrize("tau", [1e-12, 1e-10])
    def test_tiny_hopping_returns(self, tau):
        # the peak time ~ 2e12 has an ulp above the 1e-6 time tolerance, so
        # the refine stops once a probe rounds onto its bracket end
        rep = peak_transfer(_spectrum(3, tau))
        assert rep.peak_amplitude > 1.0 - 1e-9

    def test_overflowing_window_is_refused(self):
        # 1.5 M/tau_max is inf for a subnormal hopping
        sp = _spectrum(3, 5e-324)
        with pytest.raises(ValueError, match="overflows"):
            peak_transfer(sp)

    # pinned bits: a faster scan or refine must not flip the coarse argmax
    # or move any refine probe by one ulp.  The old amplitude is the one the
    # end weights g_{n1} g_{nM} of the eigenvectors gave; the weights from
    # the eigenvalues, and the eigenvalues from the two reflection sectors of
    # these mirror-symmetric chains, move it by round-off only, at the same
    # peak time
    @pytest.mark.parametrize(
        "spec, time_hex, amp_hex, old_amp_hex, samples",
        [
            (uniform_chain(101, 1.0), "0x1.a619ec95cb85dp+5", "0x1.11a004662a7e2p-1", "0x1.11a004662a7dcp-1", 3060),
            (pst_chain(50, 1.0), "0x1.921fb68fd6a85p+0", "0x1.ffffffffffa6bp-1", "0x1.ffffffffffadfp-1", 1524),
            (
                edge_modified_chain(100, 1.0, 0.5, 0.8),
                "0x1.b52da4c252a3cp+5", "0x1.e1c1938b619e7p-1", "0x1.e1c1938b6197dp-1", 3030,
            ),
        ],
        ids=["uniform101", "pst50", "two-bond100"],
    )
    def test_pinned_bits(self, spec, time_hex, amp_hex, old_amp_hex, samples):
        rep = peak_transfer(diagonalize(spec))
        assert rep.peak_time.hex() == time_hex
        assert rep.peak_amplitude.hex() == amp_hex
        assert abs(rep.peak_amplitude - float.fromhex(old_amp_hex)) <= 1e-13
        assert rep.samples == samples


class TestEndAbs:
    def test_bitwise_equal_to_direct_mode_sum(self):
        # the refine kernel takes hoisted arrays but must keep the products and
        # the summation order of the direct sum, so tune traces stay bit-equal
        sp = diagonalize(edge_modified_chain(100, 1.0, 0.5, 0.8))
        omega, w = sp._end_modes
        phase, cw = -1j * omega, w.astype(complex)
        for t in np.random.default_rng(7).uniform(0.0, 150.0, 1000):
            assert _end_abs(phase, cw, t) == abs(np.sum(w * np.exp(-1j * omega * t)))


class TestEndAbsScan:
    # n = 11 is not a multiple of its block size 4; n = 49 is a perfect square.
    # The scan starts at t = 0; a grid that starts at t0 is the scan of the
    # phase-shifted weights w e^{-i omega t0}
    @pytest.mark.parametrize("M", [1, 2, 100])
    @pytest.mark.parametrize("n, t0", [(1, 2.0), (10, 0.0), (11, 0.0), (49, 0.0), (50, 3.7)])
    def test_matches_dense_scan(self, M, n, t0):
        omega, w = diagonalize(random_chain(np.random.default_rng(M), M=M))._end_modes
        dt = 0.3
        t = t0 + dt * np.arange(n)
        dense = np.abs(np.exp(-1j * np.outer(t, omega)) @ w)
        vals = _end_abs_scan(omega, w * np.exp(-1j * t0 * omega), dt, n)
        assert vals.shape == (n,)
        assert np.max(np.abs(vals - dense)) < 1e-12

    def test_realistic_grid_matches_direct_sum(self, spectrum2000):
        # default grid of a uniform M = 2000 chain: n = 60001, block size 245;
        # the running-product phases drift most at the end of each block
        sp = spectrum2000
        n = 60001
        dt = default_window(sp)[1] / (n - 1)
        B = math.isqrt(n - 1) + 1
        assert B == 245
        omega, w = sp._end_modes
        vals = _end_abs_scan(omega, w, dt, n)
        assert vals.shape == (n,)
        edges = np.arange(B, n, B)
        rng = np.random.default_rng(2000)
        idx = np.unique(np.concatenate([[0, n - 1], edges, edges - 1, rng.integers(0, n, 200)]))
        direct = np.abs(np.exp(-1j * np.outer(idx * dt, omega)) @ w)
        assert np.max(np.abs(vals[idx] - direct)) < 1e-12

    def test_peak_transfer_memory_is_bounded(self, spectrum2000):
        # a full n x M scan at M = 2000 (n = 60001) would need 1.9 GB; the
        # two running-product phase blocks peak near 16 MB
        sp = spectrum2000
        tracemalloc.start()
        try:
            peak_transfer(sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRevivalFidelity:
    def test_identity(self):
        sp = _spectrum(9)
        assert revival_fidelity(sp, kick_state(9, 4), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_pst_full_period(self):
        for M in (5, 16):
            sp = diagonalize(pst_chain(M, 1.0))
            spacing = sp.omega[1] - sp.omega[0]
            assert revival_fidelity(sp, kick_state(M, 1), 2 * np.pi / spacing) > 1 - 1e-8

    def test_trapped_packet_first_return(self):
        # frozen from a scan of the trapped-packet configuration: the packet
        # returns to its launch point near t = 357.8 with fidelity 0.9971
        sp = diagonalize(gaussian_trap_chain(100, 1.0, 50.0, 110.0))
        pkt = gaussian_wavepacket(100, 20.0, 10.0)
        fid = revival_fidelity(sp, pkt, 357.80)
        assert abs(fid - 0.997072) < 2e-3
        assert 0.99 < fid < 1.0 - 1e-4

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_time_must_be_finite(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            revival_fidelity(_spectrum(9), kick_state(9, 4), t)


class TestEdgeExposure:
    def test_kick_initial_occupancy(self):
        sp = _spectrum(12)
        grid = evolution_grid(sp, kick_state(12, 1), 5.0, 50)
        assert edge_exposure(grid, 1) >= 1.0 - 1e-12

    def test_trapped_packet_never_reaches_ends(self):
        sp = diagonalize(gaussian_trap_chain(100, 1.0, 50.0, 110.0))
        pkt = gaussian_wavepacket(100, 20.0, 10.0)
        grid = evolution_grid(sp, pkt, 500.0, 500)
        assert edge_exposure(grid, 2) < 1e-3

    def test_uniform_far_end_exposure_matches_peak(self):
        # the far-end occupancy alone peaks at ~|A_M|^2 once the pulse arrives
        sp = _spectrum(60)
        rep = peak_transfer(sp)
        grid = evolution_grid(sp, kick_state(60, 1), 1.5 * rep.peak_time, 900)
        far = grid.prob[:, -1].max()
        assert abs(far - rep.peak_amplitude**2) < 0.01

    def test_invalid_width(self):
        sp = _spectrum(8)
        grid = evolution_grid(sp, kick_state(8, 1), 1.0, 10)
        with pytest.raises(ValueError):
            edge_exposure(grid, 0)
        with pytest.raises(ValueError):
            edge_exposure(grid, 5)
        with pytest.raises(ValueError, match="edge_width must lie in"):
            edge_exposure(grid, 1.5)
        with pytest.raises(ValueError, match="edge_width must lie in"):
            edge_exposure(grid, 2.0)


@pytest.mark.parametrize(
    "spec",
    [
        uniform_chain(60, 1.0),
        pst_chain(21, 1.0),
        edge_modified_chain(100, 1.0, 0.5, 0.8),
        gaussian_trap_chain(100, 1.0, 50.0, 110.0),
    ],
    ids=["uniform60", "pst21", "two-bond100", "trap100"],
)
def test_outputs_ignore_eigenvector_signs(spec):
    # every output that reads g holds each eigenvector an even number of
    # times, and IEEE negation is exact, so flipping rows of g changes no bit
    # of any output (the transfer path reads no eigenvector)
    sp = diagonalize(spec)
    flip = np.random.default_rng(41).random(spec.M) < 0.5
    assert flip.any() and not flip.all()
    flipped = seeded_spectrum(spec, sp.omega, np.where(flip[:, None], -sp.g, sp.g))
    kick = kick_state(spec.M, 1)
    packet = gaussian_wavepacket(spec.M, 0.3 * spec.M, 0.1 * spec.M)
    t = 0.7 * spec.M

    for state in (kick, packet):
        assert np.array_equal(evolve(flipped, state, t).z, evolve(sp, state, t).z)
        assert np.array_equal(
            evolution_grid(flipped, state, t, 50).prob, evolution_grid(sp, state, t, 50).prob
        )
        assert revival_fidelity(flipped, state, t) == revival_fidelity(sp, state, t)
        assert np.array_equal(mode_overlaps(flipped, state), mode_overlaps(sp, state))
    assert mirror_parity(flipped) == mirror_parity(sp)
