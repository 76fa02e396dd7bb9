"""
Acceptance gate: end-to-end checks of the transfer physics at fixed
tolerances, one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s` to see the lines for passing criteria too).

Two sub-clauses are known to fail against exact computation and are asserted
anyway rather than loosened:

* criterion 5: the response surface around the two-bond optimum at M = 100
  genuinely varies by ~4% over a +-0.05 box, so the neighborhood floor of
  0.98 is not met (measured 0.952);
* criterion 9: the single-occupancy leakage that the exact oracle gives at
  the sampled times on the M = 4 lattice peaks at 12.46 (t/U)^2 at U = 50
  and 10.23 (t/U)^2 at U = 100, so the 10 (t/U)^2 bound fails at
  representative sample times.  No code models this leakage independently
  yet (ROADMAP item 5).

Everything else passes at the stated tolerances.
"""

import time

import numpy as np

from qcradle import (
    HubbardParams,
    compare_effective,
    diagonalize,
    edge_exposure,
    evolution_grid,
    evolve,
    flatness_probe,
    gaussian_trap_chain,
    gaussian_wavepacket,
    kick_state,
    linearity_deviation,
    mode_overlaps,
    peak_transfer,
    pseudo_wavevectors,
    pst_chain,
    revival_fidelity,
    tune_double,
    tune_single,
    uniform_chain,
)
from util import dense_hamiltonian, random_chain


def _criterion(name: str, started: float, clauses) -> None:
    ok = all(good for _, good, _ in clauses)
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({time.perf_counter() - started:.2f}s)")
    for desc, good, detail in clauses:
        print(f"    {'ok  ' if good else 'FAIL'} {desc}: {detail}")
    failed = [f"{desc} ({detail})" for desc, good, detail in clauses if not good]
    assert not failed, "; ".join(failed)


def test_c01_perfect_transfer():
    t0 = time.perf_counter()
    clauses = []
    for M in (5, 21, 51):
        sp = diagonalize(pst_chain(M, 1.0))
        rep = peak_transfer(sp)
        spacing = float(np.mean(np.diff(sp.omega)))
        fid = revival_fidelity(sp, kick_state(M, 1), 2.0 * np.pi / spacing)
        clauses.append((f"M={M} peak >= 1-1e-8", rep.peak_amplitude >= 1 - 1e-8,
                        f"peak={rep.peak_amplitude:.12f} at t={rep.peak_time:.6f}"))
        clauses.append((f"M={M} full-period revival >= 1-1e-8", fid >= 1 - 1e-8,
                        f"fidelity={fid:.12f}"))
    _criterion("c01 perfect transfer on engineered chains", t0, clauses)


def test_c02_equally_spaced_pst_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for M in range(3, 201):
        sp = diagonalize(pst_chain(M, 1.0))
        worst = max(worst, linearity_deviation(sp, (1, M)))
    _criterion(
        "c02 equally spaced engineered spectrum",
        t0,
        [("max linearity deviation <= 1e-10 for M <= 200", worst <= 1e-10, f"worst={worst:.3e}")],
    )


def test_c03_uniform_chain_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for M in range(2, 201):
        omega = diagonalize(uniform_chain(M, 1.0)).omega
        ref = -2.0 * np.cos(np.pi * np.arange(1, M + 1) / (M + 1))
        worst = max(worst, float(np.max(np.abs(omega - ref))))
    _criterion(
        "c03 uniform-chain cosine spectrum",
        t0,
        [("max |omega - (-2cos)| <= 1e-10 for M in 2..200", worst <= 1e-10, f"worst={worst:.3e}")],
    )


def test_c04_single_parameter_tuning():
    t0 = time.perf_counter()
    result = tune_single(100, 1.0)
    x_ref = 1.03 * 100.0 ** (-1.0 / 6.0)
    x = result.best_params[0]
    _criterion(
        "c04 single-bond boundary tuning at M=100",
        t0,
        [
            ("amplitude >= 0.853", result.best_amplitude >= 0.853,
             f"amplitude={result.best_amplitude:.6f}"),
            ("x within +-20% of 1.03 M^(-1/6)", abs(x - x_ref) <= 0.20 * x_ref,
             f"x={x:.4f}, reference={x_ref:.4f}"),
        ],
    )


def test_c05_two_parameter_tuning():
    t0 = time.perf_counter()
    result = tune_double(100, 1.0)
    x, y = result.best_params
    x_ref = 2.0 * 100.0 ** (-1.0 / 3.0)
    y_ref = 2.0**0.75 * 100.0 ** (-1.0 / 6.0)
    floor = flatness_probe(100, 1.0, result.best_params, 0.05)
    _criterion(
        "c05 two-bond boundary tuning at M=100",
        t0,
        [
            ("amplitude >= 0.987", result.best_amplitude >= 0.987,
             f"amplitude={result.best_amplitude:.6f}"),
            ("x within +-25% of 2 M^(-1/3)", abs(x - x_ref) <= 0.25 * x_ref,
             f"x={x:.4f}, reference={x_ref:.4f}"),
            ("y within +-25% of 2^(3/4) M^(-1/6)", abs(y - y_ref) <= 0.25 * y_ref,
             f"y={y:.4f}, reference={y_ref:.4f}"),
            ("neighborhood floor >= 0.98 at radius 0.05", floor >= 0.98,
             f"floor={floor:.6f}"),
        ],
    )


def test_c06_pseudo_wavevector_equation():
    t0 = time.perf_counter()
    worst = 0.0
    for M in (4, 20, 100):
        for x in (0.3, 0.5, 0.8, 1.0):
            k = pseudo_wavevectors(M, x)
            from qcradle import edge_modified_chain

            omega = diagonalize(edge_modified_chain(M, 1.0, x)).omega
            worst = max(worst, float(np.max(np.abs(-2.0 * np.cos(k) - omega))))
    _criterion(
        "c06 boundary-shifted quantization condition",
        t0,
        [("max |(-2cos k_n) - omega_n| <= 1e-7", worst <= 1e-7, f"worst={worst:.3e}")],
    )


def test_c07_gaussian_trap_confinement():
    t0 = time.perf_counter()
    sp = diagonalize(gaussian_trap_chain(100, 1.0, 50.0, 110.0))
    pkt = gaussian_wavepacket(100, 20.0, 10.0)
    # one full oscillation of the trapped packet takes ~358 time units
    grid = evolution_grid(sp, pkt, 500.0, 500)
    exposure = edge_exposure(grid, 2)

    w = mode_overlaps(sp, pkt)
    csum = np.concatenate([[0.0], np.cumsum(w)])
    window_len, window = 101, None
    for lo in range(100):
        hi = int(np.searchsorted(csum, csum[lo] + 0.95))
        if hi <= 100 and hi - lo < window_len:
            window_len, window = hi - lo, (lo + 1, hi)
    _criterion(
        "c07 trapped packet stays off the lattice ends",
        t0,
        [
            ("edge exposure (width 2) < 1e-3 over a full oscillation", exposure < 1e-3,
             f"exposure={exposure:.3e}"),
            (">=95% of the packet in a narrow contiguous mode window",
             window is not None and window_len <= 30,
             f"window={window}, length={window_len}"),
        ],
    )


def test_c08_uniform_chain_attenuation():
    t0 = time.perf_counter()
    Ms = (20, 40, 80, 160)
    peaks = [peak_transfer(diagonalize(uniform_chain(M, 1.0))).peak_amplitude for M in Ms]
    decreasing = all(b < a for a, b in zip(peaks, peaks[1:]))
    slope = float(np.polyfit(np.log(Ms), np.log(peaks), 1)[0])
    _criterion(
        "c08 dispersive attenuation on the uniform chain",
        t0,
        [
            ("peak strictly decreasing over M in {20,40,80,160}", decreasing,
             "peaks=" + ", ".join(f"{p:.4f}" for p in peaks)),
            ("log-log slope in [-0.40, -0.25]", -0.40 <= slope <= -0.25, f"slope={slope:.4f}"),
        ],
    )


def test_c09_exact_hubbard_oracle():
    t0 = time.perf_counter()
    t_hop = 1.0
    reports = {}
    for U in (50.0, 100.0):
        tau = 2.0 * t_hop * t_hop / U
        grid = np.linspace(0.0, 1.2 * 4 / (2.0 * tau), 13)
        p = HubbardParams(M=4, t0=np.full(3, t_hop), t1=np.full(3, t_hop), U=U, U0=U, U1=U)
        reports[U] = compare_effective(p, grid)
    ratio = reports[50.0].deviation.max() / reports[100.0].deviation.max()
    leak_ok = all(
        float(rep.leakage.max()) < 10.0 * (t_hop / U) ** 2 for U, rep in reports.items()
    )
    leak_detail = ", ".join(
        f"U={U:g}: max_leak={rep.leakage.max():.3e} vs bound={10.0 * (t_hop / U) ** 2:.3e}"
        for U, rep in reports.items()
    )
    _criterion(
        "c09 exact two-species benchmark",
        t0,
        [
            ("deviation drops by a factor in [1.5, 4] when U doubles",
             1.5 <= ratio <= 4.0, f"ratio={ratio:.3f}"),
            ("matching hopping convention recorded",
             all(rep.convention == "2t^2/U" for rep in reports.values()),
             f"convention={reports[50.0].convention}"),
            ("leakage < 10 (t/U)^2 at all sampled times", leak_ok, leak_detail),
        ],
    )


def test_c10_universal_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_orth = worst_resid_rel = worst_row = worst_group = 0.0
    for _ in range(100):
        spec = random_chain(rng)
        sp = diagonalize(spec)
        worst_orth = max(worst_orth, float(np.max(np.abs(sp.g @ sp.g.T - np.eye(spec.M)))))
        H = dense_hamiltonian(spec)
        resid = float(np.max(np.abs(sp.g @ H.T - sp.omega[:, None] * sp.g))) if spec.M else 0.0
        scale = max(float(np.max(np.abs(sp.omega))), 1e-300)
        worst_resid_rel = max(worst_resid_rel, resid / scale)

        state = kick_state(spec.M, int(rng.integers(1, spec.M + 1)))
        grid = evolution_grid(sp, state, float(rng.uniform(1, 20)), 12)
        worst_row = max(worst_row, float(np.max(np.abs(grid.prob.sum(axis=1) - 1.0))))

        t1, t2 = rng.uniform(-6, 6, size=2)
        once = evolve(sp, evolve(sp, state, t1), t2).z
        direct = evolve(sp, state, t1 + t2).z
        worst_group = max(worst_group, float(np.max(np.abs(once - direct))))
    _criterion(
        "c10 universal invariants over 100 random chains",
        t0,
        [
            ("eigenvector orthogonality <= 1e-10", worst_orth <= 1e-10, f"worst={worst_orth:.3e}"),
            ("eigen-residual <= 1e-10 * max|omega|", worst_resid_rel <= 1e-10,
             f"worst={worst_resid_rel:.3e}"),
            ("grid row sums within 1e-9 of 1", worst_row <= 1e-9, f"worst={worst_row:.3e}"),
            ("evolution group property within 1e-10", worst_group <= 1e-10,
             f"worst={worst_group:.3e}"),
        ],
    )
