import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qcradle
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
    mirror_symmetric,
    mode_overlaps,
    peak_transfer,
    pst_chain,
    revival_fidelity,
    uniform_chain,
)
from qcradle.dynamics import (
    PEAK_COARSE_STEP,
    PEAK_WINDOW_FACTOR,
    _SCAN_MODES,
    _end_abs_scan,
    _end_kernel,
    _scan_bound,
)
from util import dense_propagate, random_chain, seeded_spectrum, unfold_modes


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
        with pytest.raises(ValueError, match=r"^t must be a finite number in \(-inf, inf\), got "):
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
        with pytest.raises(ValueError, match=r"^t_max must be a finite number in \(0, inf\), got "):
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
            gaussian_trap_chain(100, 1.0, 50.0, 110.0),
        ],
        ids=["uniform50", "pst21", "two-bond100", "uniform101", "trap100"],
    )
    def test_equals_peak_amplitude_exactly(self, spec):
        # end_amplitude and the peak search share one point kernel: on eps = 0
        # chains of even and odd M, which fold, and on a trap chain, which does not
        sp = diagonalize(spec)
        rep = peak_transfer(sp)
        assert abs(end_amplitude(sp, rep.peak_time)) == rep.peak_amplitude

    @pytest.mark.parametrize(
        "spec, p_none, q_none, fallback",
        [
            (edge_modified_chain(100, 1.0, 0.36, 0.68), True, False, False),
            (edge_modified_chain(101, 1.0, 0.36, 0.68), False, True, False),
            (gaussian_trap_chain(100, 1.0, 40.0, 50.0), False, False, False),
            (edge_modified_chain(100, 1.0, 1.0, 0.02), False, False, True),
        ],
        ids=["even-fold", "odd-fold", "both-halves", "eigenvector-fallback"],
    )
    def test_refine_modulus_equals_end_amplitude(self, spec, p_none, q_none, fallback, monkeypatch):
        # the refine's objective and end_amplitude are one point kernel away
        # from the peak too, for each shape of the modes (nu, p, q)
        sp = diagonalize(spec)
        objectives = []

        def golden_max(f, *args):
            objectives.append(f)
            return qcradle._golden.golden_max(f, *args)

        monkeypatch.setattr(qcradle.dynamics, "golden_max", golden_max)
        peak_transfer(sp)
        _, p, q = sp._end_modes
        assert (p is None, q is None, "_eigenpairs" in vars(sp)) == (p_none, q_none, fallback)
        (refine,) = objectives
        for t in np.random.default_rng(spec.M).uniform(0.0, 1.5 * spec.M, 50).tolist():
            assert refine(t) == abs(end_amplitude(sp, t))

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
        with pytest.raises(ValueError, match=r"^t must be a finite number in \(-inf, inf\), got "):
            end_amplitude(_spectrum(10), t)


def _zero_offsets(spec):
    return ChainSpec(M=spec.M, tau=spec.tau, eps=np.zeros(spec.M))


class TestChiralFold:
    # a chain with eps = 0 sums over its (M + 1) // 2 folded modes; the
    # dense propagator sums over all M modes of its own eigensolve.  Random
    # mirror chains of M >= 100 bind end states in near-degenerate pairs,
    # whose weights the eigenvectors give, unfolded
    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 100, 101])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "mirror"])
    def test_matches_dense_propagator(self, M, symmetric):
        rng = np.random.default_rng(M)
        spec = _zero_offsets(random_chain(rng, M=M, symmetric=symmetric))
        folded = self._check(spec, rng)
        assert folded or (symmetric and M >= 100)

    def test_trap_chain_does_not_fold(self):
        spec = gaussian_trap_chain(100, 1.0, 50.0, 110.0)
        assert not self._check(spec, np.random.default_rng(3))

    @staticmethod
    def _check(spec, rng):
        # True when the transfer took the folded modes
        sp = diagonalize(spec)
        size = sp._end_modes[0].size
        folded = size == (spec.M + 1) // 2 and "_eigenpairs" not in vars(sp)
        assert folded or size == spec.M
        kick = kick_state(spec.M, 1).z
        rep = peak_transfer(sp)
        exact = abs(dense_propagate(spec, kick, rep.peak_time)[-1])
        assert abs(rep.peak_amplitude - exact) <= 1e-12
        for t in rng.uniform(0.0, 3.0 * spec.M, 5):
            assert abs(end_amplitude(sp, t) - dense_propagate(spec, kick, t)[-1]) <= 1e-12
        return folded


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
        # the one window (0, 1.5 M/tau_max) and 30M + 1 coarse samples, plus
        # the golden probes and the coarse winner's re-evaluation
        tau_max = float(np.max(spec.tau)) if spec.M > 1 else 1.0
        rep = peak_transfer(diagonalize(spec))
        assert rep.window == (0.0, 1.5 * spec.M / tau_max)
        assert 30 * spec.M + 1 < rep.samples < 30 * spec.M + 64

    def test_flat_one_site_profile(self):
        # |A_1(t)| = 1 at every time: the scan's round-off, not the earliest
        # time, picks the sample to refine (t = 0.55), on every fresh solve
        spec = gaussian_trap_chain(1, 1.0, 0.5, 1.1)
        rep = peak_transfer(diagonalize(spec))
        assert abs(rep.peak_amplitude - 1.0) <= 1e-15
        assert peak_transfer(diagonalize(spec)) == rep

    @pytest.mark.parametrize("tau", [1e-12, 1e-10])
    def test_tiny_hopping_returns(self, tau):
        # a peak time ~ 2e12: the refine tolerance is 1e-6/tau, a fraction of
        # the scan step, so the search is the one at tau = 1
        rep = peak_transfer(_spectrum(3, tau))
        assert rep.peak_amplitude > 1.0 - 1e-9

    def test_overflowing_window_is_refused(self):
        # 1.5 M/tau_max is inf for a subnormal hopping
        sp = _spectrum(3, 5e-324)
        with pytest.raises(ValueError, match="overflows"):
            peak_transfer(sp)

    # pinned bits: a faster scan or refine must not flip the coarse argmax
    # or move any refine probe by one ulp.  The old amplitude is the one the
    # end weights g_{n1} g_{nM} of the eigenvectors gave, summed over all M
    # modes; the weights from the eigenvalues, the eigenvalues from the
    # reflection sectors, and the real sum over the folded modes of the
    # eps = 0 chains move it by round-off only, at the same peak time (pst50,
    # whose modes are now the closed form, reads exactly 1, which the gap
    # route's weights put 52 ulp above).  The refine tolerance is a fraction of
    # the scan step, so pst50 and asymmetric4 (tau_max = 25 and 2) refine to
    # 4e-8 and 5e-7
    @pytest.mark.parametrize(
        "spec, time_hex, amp_hex, old_amp_hex, samples",
        [
            (uniform_chain(101, 1.0), "0x1.a619ec95cb85dp+5", "0x1.11a004662a7bap-1", "0x1.11a004662a7dcp-1", 3060),
            (pst_chain(50, 1.0), "0x1.921fb544716f1p+0", "0x1.0000000000000p+0", "0x1.0000000000002p+0", 1530),
            (
                edge_modified_chain(100, 1.0, 0.5, 0.8),
                "0x1.b52da4c252a3cp+5", "0x1.e1c1938b619d2p-1", "0x1.e1c1938b6197dp-1", 3030,
            ),
            # the other shapes of the modes: both halves, the eigenvector fallback, a chain
            # that is not mirror-symmetric, and one site
            (
                gaussian_trap_chain(100, 1.0, 40.0, 50.0),
                "0x1.a4fd984ed7354p+5", "0x1.06bd9b1c098eep-1", "0x1.06bd9b1c098fdp-1", 3030,
            ),
            (
                edge_modified_chain(100, 1.0, 1.0, 0.02),
                "0x1.285454cde9cb4p+7", "0x1.ff99a59790369p-6", "0x1.ff99a59790368p-6", 3030,
            ),
            (
                ChainSpec(M=4, tau=[1.0, 2.0, 1.5], eps=np.zeros(4)),
                "0x1.f668d877f7756p+0", "0x1.beccd83d21a17p-1", "0x1.beccd83d21a19p-1", 150,
            ),
            (uniform_chain(1, 1.0), "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", 59),
        ],
        ids=["uniform101", "pst50", "two-bond100", "trap100", "fallback100", "asymmetric4", "one-site"],
    )
    def test_pinned_bits(self, spec, time_hex, amp_hex, old_amp_hex, samples):
        rep = peak_transfer(diagonalize(spec))
        assert rep.peak_time.hex() == time_hex
        assert rep.peak_amplitude.hex() == amp_hex
        assert abs(rep.peak_amplitude - float.fromhex(old_amp_hex)) <= 1e-13
        assert rep.samples == samples

    @pytest.mark.parametrize(
        "spec",
        [
            edge_modified_chain(100, 1.0, 0.36, 0.68),
            pst_chain(50, 1.0),
            uniform_chain(101, 1.0),
            gaussian_trap_chain(100, 1.0, 40.0, 50.0),
            ChainSpec(M=4, tau=[1.0, 2.0, 1.5], eps=np.zeros(4)),
        ],
        ids=["two-bond100", "pst50", "uniform101", "trap100", "asymmetric4"],
    )
    def test_peak_is_scale_free(self, spec):
        # the window, the scan step and the refine tolerance are all in units
        # of 1/tau_max: a chain with every energy times c has the same scan
        # and refine, its times divided by c
        ref = peak_transfer(diagonalize(spec))
        for c in (1e-300, 1e-3, 1e3, 1e5, 1e300):
            rep = peak_transfer(diagonalize(ChainSpec(M=spec.M, tau=spec.tau * c, eps=spec.eps * c)))
            assert abs(rep.peak_amplitude - ref.peak_amplitude) <= 1e-11
            assert rep.samples == ref.samples
            assert abs(rep.peak_time * c - ref.peak_time) <= 1e-9 * ref.peak_time


def _direct_argmax(modes, dt, n):
    # the first maximum of |A_M(k dt)|, k < n, summed directly in float64, in row blocks
    nu, p, q = modes
    best, arg = -1.0, -1
    for lo in range(0, n, 1024):
        x = np.multiply.outer(np.arange(lo, min(lo + 1024, n)) * dt, nu)
        C = 0.0 if p is None else np.cos(x) @ p
        S = 0.0 if q is None else np.sin(x) @ q
        a = np.hypot(C, S)
        k = int(np.argmax(a))
        if a[k] > best:
            best, arg = a[k], lo + k
    return arg


class PeakSpy:
    """Records, under a pytest ``monkeypatch``, the precision of each coarse scan that
    ``_peak`` runs and the sample index that it hands to the golden refine."""

    def __init__(self, monkeypatch):
        self.scans, self.starts = [], []
        scan, refine = qcradle.dynamics._end_abs_scan, qcradle.dynamics.golden_max

        def scanned(nu, p, q, dt, n, dtype=np.float64):
            self.scans.append(dtype)
            self.dt = dt
            return scan(nu, p, q, dt, n, dtype)

        def golden_max(f, x, *args):
            self.starts.append(round(x / self.dt))
            return refine(f, x, *args)

        monkeypatch.setattr(qcradle.dynamics, "_end_abs_scan", scanned)
        monkeypatch.setattr(qcradle.dynamics, "golden_max", golden_max)

    def pick(self, sp):
        # (picked sample, direct float64 argmax, took the float64 scan) of one peak search
        self.scans.clear()
        self.starts.clear()
        rep = peak_transfer(sp)
        n = round(PEAK_WINDOW_FACTOR / PEAK_COARSE_STEP) * sp.M + 1
        assert self.scans in ([np.float32], [np.float32, np.float64], [np.float64])
        direct = _direct_argmax(sp._end_modes, rep.window[1] / (n - 1), n)
        return self.starts[0], direct, self.scans[-1] is np.float64


class TestPeakCandidates:
    # the float32 scan's candidates within 2 delta of its top hold the float64
    # maximum, so the sample handed to the refine is the first maximum of a
    # direct float64 sum over the whole grid.  Chains too small to scan in
    # float32 by default are made to, below
    @pytest.mark.parametrize("M", [500, 2000])
    def test_transfer_chains(self, M, monkeypatch):
        spy = PeakSpy(monkeypatch)
        for spec in (uniform_chain(M, 1.0), pst_chain(M, 1.0), edge_modified_chain(M, 1.0, 0.5, 0.8)):
            k, direct, fallback = spy.pick(diagonalize(spec))
            assert (k, fallback) == (direct, False)

    def test_tuner_grid(self, monkeypatch):
        # 200 chains of tune_double(100)'s 50 x 50 grid: none is cut enough to fall back
        grid = np.linspace(0.02, 1.0, 50)
        cells = np.random.default_rng(100).choice(grid.size**2, 200, replace=False)
        spy = PeakSpy(monkeypatch)
        monkeypatch.setattr(qcradle.dynamics, "_FLOAT32_SCAN_WORK", 0)
        for cell in cells.tolist():
            x, y = grid[cell // grid.size], grid[cell % grid.size]
            k, direct, fallback = spy.pick(diagonalize(edge_modified_chain(100, 1.0, x, y)))
            assert (k, fallback) == (direct, False)

    def test_random_chains(self, monkeypatch):
        # disordered chains of up to 30 sites, which still transmit
        rng = np.random.default_rng(38)
        spy = PeakSpy(monkeypatch)
        monkeypatch.setattr(qcradle.dynamics, "_FLOAT32_SCAN_WORK", 0)
        for _ in range(100):
            spec = random_chain(rng, symmetric=bool(rng.integers(2)))
            k, direct, fallback = spy.pick(diagonalize(spec))
            assert (k, fallback) == (direct, False)

    def test_small_scans_stay_in_float64(self, monkeypatch):
        # the tuner's folded M = 100 chains (50 modes x 3001 samples) and an unfolded
        # one (100 x 3001) fall below _FLOAT32_SCAN_WORK and take the float64 scan's
        # first maximum directly; M = 200 folded (100 x 6001) and M = 150 unfolded
        # (150 x 4501) scan in float32
        spy = PeakSpy(monkeypatch)
        for spec, scans in (
            (edge_modified_chain(100, 1.0, 0.36, 0.68), [np.float64]),
            (gaussian_trap_chain(100, 1.0, 40.0, 50.0), [np.float64]),
            (edge_modified_chain(200, 1.0, 0.36, 0.68), [np.float32]),
            (gaussian_trap_chain(150, 1.0, 60.0, 75.0), [np.float32]),
        ):
            spy.pick(diagonalize(spec))
            assert spy.scans == scans

    def test_nearly_cut_chain_takes_the_float64_scan(self, monkeypatch):
        # at x = 1e-6 the profile lies far below sum |w|: every one of the 15001
        # samples is within 2 delta of the top, so the float64 scan picks, with the
        # bits it gave before the float32 scan
        spy = PeakSpy(monkeypatch)
        sp = diagonalize(edge_modified_chain(500, 1.0, 1e-6))
        k, direct, fallback = spy.pick(sp)
        assert fallback and k == direct
        rep = peak_transfer(sp)
        assert (rep.peak_time.hex(), rep.peak_amplitude.hex(), rep.samples) == (
            "0x1.7700000000000p+9", "0x1.122ba659b48cep-30", 15029,
        )


class TestEndSum:
    @pytest.mark.parametrize(
        "spec",
        [
            edge_modified_chain(100, 1.0, 0.5, 0.8),
            edge_modified_chain(101, 1.0, 0.5, 0.8),
            gaussian_trap_chain(100, 1.0, 50.0, 110.0),
        ],
        ids=["even", "odd", "trap"],
    )
    def test_matches_direct_mode_sum(self, spec):
        # the real sums over the transfer's modes against the complex sum
        # over all M modes with the same eigenvalues and end weights
        modes = diagonalize(spec)._end_modes
        omega, w = unfold_modes(modes, spec.M)
        amp = _end_kernel(*modes)
        for t in np.random.default_rng(7).uniform(0.0, 150.0, 1000):
            assert abs(amp(t) - np.sum(w * np.exp(-1j * omega * t))) <= 1e-14


def _scan_modes(spec):
    # the transfer's modes, and all M eigenvalues and end weights of one full solve
    sp = diagonalize(spec)
    return sp._end_modes, sp.omega, sp.g[:, 0] * sp.g[:, -1]


def _shifted(modes, t0):
    # the modes whose scan from t = 0 is the scan from t = t0
    nu, p, q = modes
    phase = np.exp(-1j * t0 * nu)
    return nu, None if p is None else p * phase, None if q is None else q * phase


# modes per scan chunk: the default (every case below is one chunk), one mode
# per chunk, and 7, which leaves a partial last chunk for M = 100 and 101
SCAN_CHUNKS = (_SCAN_MODES, 1, 7)


def _precisions(cases):
    # each (n, t0) case of the scan in float64, under its plain id, and in float32
    ids = ["-".join(map(str, case)) for case in cases]
    return [pytest.param(*case, np.float64, id=i) for case, i in zip(cases, ids)] + [
        pytest.param(*case, np.float32, id=f"{i}-float32") for case, i in zip(cases, ids)
    ]


class TestEndAbsScan:
    # n = 11 is not a multiple of its block size 4; n = 49 is a perfect square.
    # The scan starts at t = 0; a grid that starts at t0 is the scan of the
    # phase-shifted weights p e^{-i nu t0}, q e^{-i nu t0}.  The float64 scan
    # is pinned to the dense scan; the float32 scan is within its own bound
    @pytest.mark.parametrize("M", [1, 2, 100])
    @pytest.mark.parametrize(
        "n, t0, dtype", _precisions([(1, 2.0), (10, 0.0), (11, 0.0), (49, 0.0), (50, 3.7)])
    )
    def test_matches_dense_scan(self, M, n, t0, dtype, monkeypatch):
        modes, omega, w = _scan_modes(random_chain(np.random.default_rng(M), M=M))
        dt = 0.3
        t = t0 + dt * np.arange(n)
        dense = np.abs(np.exp(-1j * np.outer(t, omega)) @ w)
        for chunk in SCAN_CHUNKS:
            monkeypatch.setattr(qcradle.dynamics, "_SCAN_MODES", chunk)
            vals = _end_abs_scan(*_shifted(modes, t0), dt, n, dtype)
            assert vals.shape == (n,)
            if dtype is np.float32:
                assert np.max(np.abs(vals - dense)) <= _scan_bound(*_shifted(modes, t0), dt, n, dtype)
                continue
            assert np.max(np.abs(vals - dense)) < 1e-12

    @pytest.mark.parametrize("M", [1, 2, 3, 100, 101])
    @pytest.mark.parametrize("n, t0, dtype", _precisions([(1, 2.0), (11, 0.0), (50, 3.7)]))
    def test_folded_modes_match_dense_scan(self, M, n, t0, dtype, monkeypatch):
        # eps = 0 chains scan one half: the sine sum (even M) or the cosine sum (odd M)
        spec = random_chain(np.random.default_rng(M), M=M)
        modes, omega, w = _scan_modes(ChainSpec(M=M, tau=spec.tau, eps=np.zeros(M)))
        assert modes[0].size == (M + 1) // 2 and (modes[1] is None) == (M % 2 == 0)
        dt = 0.3
        t = t0 + dt * np.arange(n)
        dense = np.abs(np.exp(-1j * np.outer(t, omega)) @ w)
        for chunk in SCAN_CHUNKS:
            monkeypatch.setattr(qcradle.dynamics, "_SCAN_MODES", chunk)
            vals = _end_abs_scan(*_shifted(modes, t0), dt, n, dtype)
            if dtype is np.float32:
                assert np.max(np.abs(vals - dense)) <= _scan_bound(*_shifted(modes, t0), dt, n, dtype)
                continue
            assert np.max(np.abs(vals - dense)) < 1e-12

    @staticmethod
    def _realistic_grid(sp, dtype):
        # default grid of a uniform M = 2000 chain: n = 60001, block size 245;
        # the doubled phases drift most at the end of each block.  The scan at
        # the block edges and 200 random samples, the direct sum there, and delta
        n = 60001
        dt = peak_transfer(sp).window[1] / (n - 1)
        B = math.isqrt(n - 1) + 1
        assert B == 245
        vals, delta = _end_abs_scan(*sp._end_modes, dt, n, dtype), _scan_bound(*sp._end_modes, dt, n, dtype)
        assert vals.shape == (n,)
        edges = np.arange(B, n, B)
        rng = np.random.default_rng(2000)
        idx = np.unique(np.concatenate([[0, n - 1], edges, edges - 1, rng.integers(0, n, 200)]))
        omega, w = sp.omega, sp.g[:, 0] * sp.g[:, -1]
        return vals[idx], np.abs(np.exp(-1j * np.outer(idx * dt, omega)) @ w), delta

    def test_realistic_grid_matches_direct_sum(self, spectrum2000):
        vals, direct, _ = self._realistic_grid(spectrum2000, np.float64)
        assert np.max(np.abs(vals - direct)) < 1e-12

    def test_float32_realistic_grid_is_within_delta(self, spectrum2000):
        # the bound holds, and is no looser than 400 float32 round-offs of the weights
        # (1.9e-5 here: 170 times the largest error seen)
        vals, direct, delta = self._realistic_grid(spectrum2000, np.float32)
        weights = np.sum(np.abs(spectrum2000._end_modes[2]))
        assert np.max(np.abs(vals - direct)) <= delta < 400 * 2.0**-24 * weights

    def test_float32_product_sees_no_weight_below_its_floor(self, monkeypatch):
        # pst weights fall like 2^-M: at M = 2000 those between the float64 floor and
        # tiny/eps of float32 (1e-31) would make subnormal float32 products.  The scan
        # zeroes them, so every entry of the weighted outer block that sgemm reads is 0
        # or at least the floor, as built from a kept weight
        sp = diagonalize(pst_chain(2000, 1.0))
        nu, _, q = sp._end_modes
        floor = np.finfo(np.float32).tiny / np.finfo(np.float32).eps
        assert ((0.0 < np.abs(q)) & (np.abs(q) < floor)).sum() > 100
        blocks = []
        *rest, gemm = qcradle.dynamics._PRECISIONS[np.float32]

        def recorded(alpha, a, b, **kwargs):
            blocks.append(np.array(b.T).view(np.complex64))
            return gemm(alpha, a, b, **kwargs)

        monkeypatch.setitem(qcradle.dynamics._PRECISIONS, np.float32, (*rest, recorded))
        _end_abs_scan(nu, None, q, 0.05 / float(sp.spec.tau.max()), 30 * 2000 + 1, np.float32)
        assert len(blocks) == -(-nu.size // _SCAN_MODES)
        outer = np.abs(np.concatenate(blocks, axis=1))
        assert np.count_nonzero(outer[0]) == np.count_nonzero(np.abs(q) >= floor)
        assert not ((0.0 < outer) & (outer < floor * (1.0 - 2.0**-10))).any()

    def test_peak_transfer_memory_is_bounded(self):
        # a fresh solve, so the end weights fall inside the window too.  At
        # M = 5000 (n = 150001) the phase blocks over all modes peaked at 44.5 MB
        # (two-bond) and 118 MB (trap); in chunks of 128 modes they and the
        # 256 KB gap chunks peak near 6 and 9 MB
        for spec in (edge_modified_chain(5000, 1.0, 0.5, 0.8), gaussian_trap_chain(5000, 1.0, 2500.0, 5500.0)):
            tracemalloc.start()
            try:
                peak_transfer(diagonalize(spec))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20

    def test_scan_holds_one_accumulator(self):
        # the off-centre trap at M = 5000 scans both halves over 40 chunks into
        # a 774 x 388 float32 accumulator (1.2 MB), through one product block of
        # its size that each chunk's sgemm overwrites, so the scan peaks near
        # those two plus one chunk's complex64 outer and inner blocks (1.2 MB).
        # complex128 blocks, a float64 accumulator, or one chunk's blocks kept
        # alive into the next each add 1.2 MB
        sp = diagonalize(gaussian_trap_chain(5000, 1.0, 2500.0, 5500.0))
        nu, p, q = sp._end_modes
        n = 30 * sp.M + 1
        dt = peak_transfer(sp).window[1] / (n - 1)
        B = math.isqrt(n - 1) + 1
        nb = -(-n // B)
        accumulator = 2 * nb * B * 4
        blocks = (2 * nb + B) * _SCAN_MODES * 8
        assert nu.size > _SCAN_MODES and p is not None and q is not None
        tracemalloc.start()
        try:
            _end_abs_scan(nu, p, q, dt, n, np.float32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * accumulator + blocks + 2**19

    def test_workload_transfers_peak_rss(self):
        # the peak RSS of a fresh process, which also counts BLAS buffers: the
        # three M = 2000 transfers of the benchmark raised it by about 24.5 MB
        # with phase blocks over all modes, and by about 4 MB in chunks
        script = """
import resource
from qcradle import diagonalize, edge_modified_chain, peak_transfer, pst_chain, uniform_chain

def run(M):
    for spec in (uniform_chain(M, 1.0), pst_chain(M, 1.0), edge_modified_chain(M, 1.0, 0.5, 0.8)):
        peak_transfer(diagonalize(spec))

run(500)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run(2000)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0)
"""
        src = str(Path(qcradle.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert float(run.stdout) < 12.0  # MB; ru_maxrss is in KiB on Linux


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
        with pytest.raises(ValueError, match=r"^t must be a finite number in \(-inf, inf\), got "):
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
        for width in (0, 5, 1.5, 2.0, True):
            with pytest.raises(ValueError) as info:
                edge_exposure(grid, width)
            assert str(info.value) == f"edge_width must be an integer in 1..4, got {width!r}"

    def test_positive_trap_sign_pushes_the_packet_into_the_ends(self):
        # the trap_bounce setting: the default sign -1 confines the packet,
        # the opposite sign scatters it onto the outermost sites
        pkt = gaussian_wavepacket(100, 20.0, 10.0)
        exposure = {}
        for sign in (-1, 1):
            sp = diagonalize(gaussian_trap_chain(100, 1.0, 50.0, 110.0, sign))
            exposure[sign] = edge_exposure(evolution_grid(sp, pkt, 500.0, 500), 5)
        assert exposure[1] > 0.1
        assert exposure[1] > 50.0 * exposure[-1]


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


@pytest.mark.parametrize(
    "call",
    [
        lambda sp, state: evolution_grid(sp, state, 1.0, 2),
        lambda sp, state: evolve(sp, state, 1.0),
    ],
    ids=["evolution_grid", "evolve"],
)
def test_refuses_a_state_of_another_size(call):
    with pytest.raises(ValueError) as info:
        call(_spectrum(3), kick_state(4, 1))
    assert info.type is ValueError and str(info.value) == "state has 4 sites, spectrum has 3"
