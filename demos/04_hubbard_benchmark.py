#!/usr/bin/env python3
"""
Is the single-excitation chain the right effective model?  Ask the exact one.

On a small lattice the full two-species Bose-Hubbard model is exactly
diagonalizable, so the free hopping-chain reduction can be scored directly:
evolve one species-1 atom in a sea of species-0 atoms, project onto the
singly-occupied sector, and compare site probabilities with the chain
evolution.  The run also settles the hopping normalization empirically:
tau = 2 t^2 / U (the second-order value) tracks the exact dynamics, while
tau = t^2 / U runs at half speed.  The last table reports how the leakage
per (t/U)^2 changes with the chain length.
"""

import numpy as np

from qcradle import HubbardParams, compare_effective, effective_params

M, t = 4, 1.0

print(f"lattice: M = {M} sites, one species-1 atom among {M - 1} species-0 atoms")
for U in (25.0, 50.0, 100.0, 200.0):
    p = HubbardParams(M=M, t0=np.full(M - 1, t), t1=np.full(M - 1, t), U=U, U0=U, U1=U)
    tau = effective_params(p).tau[0]
    grid = np.linspace(0.0, 1.2 * M / (2 * tau), 13)
    rep = compare_effective(p, grid)
    print(f"U/t = {U:5.0f}: tau = {tau:.4f}  "
          f"max deviation {rep.deviation.max():.2e}  "
          f"max leakage {rep.leakage.max():.2e} (~{rep.leakage.max() * (U / t) ** 2:.1f} (t/U)^2)  "
          f"matched convention: {rep.convention}")

p = HubbardParams(M=M, t0=np.full(M - 1, t), t1=np.full(M - 1, t), U=50.0, U0=50.0, U1=50.0)
rep = compare_effective(p, np.linspace(0.0, 60.0, 13))
print("\nworst-case site-probability mismatch at U/t = 50:")
print(f"  with tau = 2 t^2/U : {rep.deviations['2t^2/U'].max():.2e}")
print(f"  with tau =   t^2/U : {rep.deviations['t^2/U'].max():.2e}")
print("""
The factor-two-slower convention misses the transfer entirely, so the
second-order value is the physical one.  Deviations and leakage both shrink
as (t/U)^2: the effective cradle becomes exact in the hard-core limit.
""")

# Leakage against chain length.  Each lattice is diagonalized in its two
# site-reflection sectors, which makes M = 7 (2499 states) cheap enough here.
U = 50.0
print(f"max leakage per (t/U)^2 at U/t = {U:.0f}, 13 samples over [0, 1.2 M / (2 tau)]:")
for M in range(4, 8):
    p = HubbardParams(M=M, t0=np.full(M - 1, t), t1=np.full(M - 1, t), U=U, U0=U, U1=U)
    grid = np.linspace(0.0, 1.2 * M / (2 * effective_params(p).tau[0]), 13)
    rep = compare_effective(p, grid, max_dim=4096)
    print(f"  M = {M}: basis {rep.basis_dim:4d} = sectors {rep.sector_dims}  "
          f"max leakage {rep.leakage.max() * (U / t) ** 2:.2f} (t/U)^2")
