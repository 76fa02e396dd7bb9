"""
Exact two-species Bose-Hubbard benchmark for the effective chain model.

The microscopic model couples two boson species alpha in {0, 1} on M sites:

    H = sum_alpha sum_j [ U_alpha n_{alpha j} (n_{alpha j} - 1) + xi_j n_{alpha j} ]
        + U sum_j (n_{0j} - 1/2)(n_{1j} - 1/2)
        - sum_alpha sum_j t_{alpha j} (a+_{alpha j} a_{alpha, j+1} + h.c.).

At strong repulsion with one atom per site, second-order virtual hopping
through doubly-occupied states produces an effective hard-core model on the
singly-occupied sector with

    tau_j   = 2 t_{0j} t_{1j} / U
    gamma_j = 2 [ (t_{0j}^2 + t_{1j}^2)/U - t_{0j}^2/U_0 - t_{1j}^2/U_1 ]
    sigma_j = 2 t_{0j}^2/U_0 - (t_{0j}^2 + t_{1j}^2)/U .

For species-independent parameters gamma and sigma cancel exactly and the
dynamics is a free single-excitation hopping chain.  ``compare_effective``
validates that reduction against exact diagonalization of the full model on
small lattices, and settles empirically the factor-two ambiguity between the
tau above and the tau_j = t_j^2/U convention with one chain: t^2/U halves
every hopping of 2t^2/U, so evolving the 2t^2/U chain at t and at t/2 scores
both, and it records which one tracks the exact site probabilities.

The exact basis stores each species' occupation rows apart: state
i = i0 c1 + i1 pairs row i0 of species 0 with row i1 of the c1 species-1 rows.
The species never hop into each other, so H = T0 (x) 1 + 1 (x) T1 + D.

``compare_effective`` diagonalizes H one site-reflection sector at a time.
Reversing the sites permutes the basis (state i -> R(i)); when the hoppings
and the offsets xi are palindromic, H commutes with R and splits into an even
block, spanned by (e_i + e_R(i))/sqrt(2) and the fixed points e_i, and an odd
block, spanned by (e_i - e_R(i))/sqrt(2).  Each block holds about half the
states, so the dense eigensolve takes about a quarter of the flops.  Otherwise the
one sector is the whole space.  ``_sector_modes`` is the one dense eigensolve;
``max_dim`` caps the full basis dimension once, before H is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, prod

import numpy as np
import scipy.sparse as sp

from .chains import ChainSpec, kick_state, _count, _readonly
from .dynamics import evolve
from .errors import TooLargeError
from .spectral import diagonalize

BASIS_STATE_CAP = 200_000
# compare_effective's default max_dim, on its full basis, checked before H is built
EVOLVE_DIM_CAP = 2048

# tau convention -> its tau as a multiple of 2t^2/U, which is also its time scale
TAU_CONVENTIONS = {"2t^2/U": 1.0, "t^2/U": 0.5}


@dataclass(frozen=True, eq=False)
class HubbardParams:
    """Two-species Bose-Hubbard couplings on an open M-site chain."""

    M: int
    t0: np.ndarray
    t1: np.ndarray
    U: float
    U0: float
    U1: float
    xi: np.ndarray | None = None

    def __post_init__(self):
        _count("M", self.M, 1)
        t0 = np.atleast_1d(np.asarray(self.t0, dtype=float))
        t1 = np.atleast_1d(np.asarray(self.t1, dtype=float))
        if t0.shape != (self.M - 1,) or t1.shape != (self.M - 1,):
            raise ValueError(f"hopping lists must have length M-1 = {self.M - 1}")
        xi = np.zeros(self.M) if self.xi is None else np.asarray(self.xi, dtype=float)
        if xi.shape != (self.M,):
            raise ValueError(f"xi must have length M = {self.M}")
        for name, value in (("t0", t0), ("t1", t1), ("U", self.U), ("U0", self.U0), ("U1", self.U1), ("xi", xi)):
            if not np.isfinite(np.asarray(value, dtype=float)).all():
                raise ValueError(f"{name} must be finite")
            if name[0] == "U" and not value > 0.0:
                raise ValueError(f"{name} must be > 0")
        object.__setattr__(self, "t0", _readonly(t0))
        object.__setattr__(self, "t1", _readonly(t1))
        object.__setattr__(self, "xi", _readonly(xi))

    def species_independent(self) -> bool:
        return bool(
            np.array_equal(self.t0, self.t1) and self.U0 == self.U and self.U1 == self.U
        )


@dataclass(frozen=True, eq=False)
class EffectiveParams:
    """Second-order effective couplings: hopping tau, density-density gamma,
    chemical-potential sigma, one entry per bond."""

    tau: np.ndarray
    gamma: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", _readonly(np.asarray(self.tau, dtype=float)))
        object.__setattr__(self, "gamma", _readonly(np.asarray(self.gamma, dtype=float)))
        object.__setattr__(self, "sigma", _readonly(np.asarray(self.sigma, dtype=float)))


def effective_params(p: HubbardParams) -> EffectiveParams:
    """Second-order effective couplings of the singly-occupied sector."""
    t0, t1 = p.t0, p.t1
    tau = 2.0 * t0 * t1 / p.U
    gamma = 2.0 * ((t0**2 + t1**2) / p.U - t0**2 / p.U0 - t1**2 / p.U1)
    sigma = 2.0 * t0**2 / p.U0 - (t0**2 + t1**2) / p.U
    return EffectiveParams(tau=tau, gamma=gamma, sigma=sigma)


def _count_rows(M: int, N: int, nmax: int) -> int:
    """Ways to put N bosons on M >= 1 sites, at most nmax per site, by
    inclusion-exclusion over the k sites forced above nmax, counting the fewer
    of N atoms and M nmax - N holes."""
    N = min(N, M * nmax - N)
    ks = range(min(M, N // (nmax + 1)) + 1)
    return sum((-1) ** k * comb(M, k) * comb(N - k * (nmax + 1) + M - 1, M - 1) for k in ks)


def _occupation_rows(M: int, N: int, nmax: int) -> np.ndarray:
    """Read-only (count, M) array of the occupation rows of N bosons on M
    sites, each site <= nmax, in ascending lexicographic order.  The dtype is
    the smallest unsigned one that holds min(nmax, N), as no site holds more
    than the N atoms: cast to int64 before arithmetic (NumPy 2 turns
    uint8 + 1.0 into float16)."""
    # tails[n]: rows of the last m sites with n atoms, for n the first M - m sites can top up to N
    tails = {0: np.empty((1, 0), dtype=np.min_scalar_type(min(nmax, N)))}
    for m in range(1, M + 1):
        tails = {
            n: np.vstack([np.insert(tails[n - f], 0, f, axis=1) for f in range(min(nmax, n) + 1) if n - f in tails])
            for n in range(max(0, N - (M - m) * nmax), min(N, m * nmax) + 1)
        }
    return _readonly(tails[N])


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Deterministic occupation-number basis at fixed atom counts (N0, N1).

    ``occ = (occ0, occ1)`` holds each species' occupation rows, read-only
    (c_alpha, M) arrays in ascending lexicographic order.  State i = i0 c1 + i1
    pairs row i0 of species 0 with row i1 of species 1."""

    M: int
    N0: int
    N1: int
    nmax: int
    occ: tuple = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.occ[0]) * len(self.occ[1])

    def index(self, n0, n1) -> int:
        """Position of the state (n0, n1); ValueError if it is not in the basis."""
        if np.shape(n0) == np.shape(n1) == (self.M,):
            i0, i1 = (np.flatnonzero(np.all(rows == n, axis=1)) for rows, n in zip(self.occ, (n0, n1)))
            if i0.size and i1.size:
                return int(i0[0]) * len(self.occ[1]) + int(i1[0])
        raise ValueError(f"({n0}, {n1}) is not a state of this basis")


def enumerate_basis(M: int, N0: int, N1: int, nmax: int, max_states: int = BASIS_STATE_CAP) -> FockBasis:
    """All (species-0, species-1) occupation pairs at fixed atom counts.

    Ordering is lexicographic on the concatenated occupation vector, so the
    basis (and everything built on it) is reproducible.  nmax >= 2 keeps the
    virtual doubly-occupied states that mediate the second-order processes.
    """
    _count("M", M, 1)
    _count("N0", N0, 0)
    _count("N1", N1, 0)
    _count("nmax", nmax, 1)
    if N0 > M * nmax or N1 > M * nmax:
        raise ValueError("nmax too small to host the atoms")
    # Refuse from a cheap bound first; past it the exact count has few terms.  Row counts,
    # coefficients of (1 + ... + x^nmax)^M, are symmetric and unimodal in N, so N atoms have
    # at least the C(M, j) rows of j = min(N, M nmax - N, 2) atoms on distinct sites.
    least = prod(comb(M, min(N, M * nmax - N, 2)) for N in (N0, N1))
    if least > max_states:
        raise TooLargeError(f"basis would hold at least {least} states, cap is {max_states}")
    total = _count_rows(M, N0, nmax) * _count_rows(M, N1, nmax)
    if total > max_states:
        raise TooLargeError(f"basis would hold {total} states, cap is {max_states}")
    occ = (_occupation_rows(M, N0, nmax), _occupation_rows(M, N1, nmax))
    return FockBasis(M=M, N0=N0, N1=N1, nmax=nmax, occ=occ)


def _hopping_block(t: np.ndarray, occ: np.ndarray, nmax: int) -> sp.csr_matrix:
    """One species' hopping matrix on its own (int64) occupation rows.  A hop
    src -> dst adds one fixed vector to every row that allows it, which keeps
    lexicographic order: the k-th row that can send the atom lands on the k-th
    row that can receive it, so no row is looked up."""
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
    for j in np.flatnonzero(t):
        for src, dst in ((j + 1, j), (j, j + 1)):
            sent = np.flatnonzero((occ[:, src] > 0) & (occ[:, dst] < nmax))
            rows.append(np.flatnonzero((occ[:, dst] > 0) & (occ[:, src] < nmax)))
            cols.append(sent)
            vals.append(-t[j] * np.sqrt(occ[sent, dst] + 1.0) * np.sqrt(occ[sent, src]))
    data = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sp.coo_matrix(data, shape=(len(occ), len(occ))).tocsr()


def build_hamiltonian(p: HubbardParams, basis: FockBasis) -> sp.csr_matrix:
    """Sparse H = T0 (x) 1 + 1 (x) T1 + D of the two-species model in the given
    basis: T_alpha is species alpha's hopping on its own rows, D the on-site
    terms, summed site by site.  Hopping carries the boson factors
    sqrt(n+1) sqrt(n); hops that would exceed the occupancy cap nmax are
    excluded, so the caller must pick nmax large enough for the accuracy
    needed (nmax = 2 suffices for the second-order physics; see the
    convergence test)."""
    if p.M != basis.M:
        raise ValueError(f"params have M={p.M}, basis has M={basis.M}")
    occ0, occ1 = (rows.astype(np.int64) for rows in basis.occ)
    c0, c1 = len(occ0), len(occ1)
    diag = np.zeros(c0 * c1)
    for j in range(p.M):
        n0, n1 = np.repeat(occ0[:, j], c1), np.tile(occ1[:, j], c0)
        diag += p.U0 * n0 * (n0 - 1) + p.U1 * n1 * (n1 - 1)
        diag += p.xi[j] * (n0 + n1)
        diag += p.U * (n0 - 0.5) * (n1 - 0.5)
    hop0 = sp.kron(_hopping_block(p.t0, occ0, basis.nmax), sp.identity(c1), format="csr")
    hop1 = sp.kron(sp.identity(c0), _hopping_block(p.t1, occ1, basis.nmax), format="csr")
    return hop0 + hop1 + sp.diags(diag, format="csr")


def _reflection(basis: FockBasis) -> np.ndarray:
    """Site-reflection permutation R of the basis: state R[i] is state i with
    its sites reversed.  lexsort reads its last key first, so sorting one
    species' sorted rows by their reversed columns puts at position k the row
    that equals row k reversed.  Packing a row into one base-(nmax+1) integer
    instead would overflow int64 once (nmax+1)^M > 2^63."""
    r0, r1 = (np.lexsort(rows.T) for rows in basis.occ)
    return (r0[:, None] * len(r1) + r1).ravel()


def _sectors(R: np.ndarray) -> list[sp.csr_matrix]:
    """Sparse isometries onto the even and odd sectors of the involution R:
    each pair i < R(i) spans (e_i +- e_R(i))/sqrt(2), each fixed point e_i the
    even sector only.  The identity R leaves one sector, the whole space."""
    i = np.arange(R.size)
    h = np.sqrt(0.5)
    sectors = []
    for sign, reps in ((1.0, np.flatnonzero(i <= R)), (-1.0, np.flatnonzero(i < R))):
        pair = R[reps] != reps
        cols = np.arange(reps.size)
        vals = np.concatenate([np.where(pair, h, 1.0), np.full(np.count_nonzero(pair), sign * h)])
        coords = (np.concatenate([reps, R[reps[pair]]]), np.concatenate([cols, cols[pair]]))
        sectors.append(sp.csr_matrix((vals, coords), shape=(R.size, reps.size)))
    return [S for S in sectors if S.shape[1]]


def _sector_modes(H, S, rows) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the block S^T H S and the given rows of its eigenvectors mapped back
    to the full basis, (S V)[rows]; the dense V dies on return, before the next block's eigh."""
    lam, V = np.linalg.eigh((S.T @ H @ S).toarray())
    return lam, S[rows] @ V


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Exact-vs-effective comparison along a time grid.

    ``deviations`` holds the per-time max site-probability mismatch for both
    tau conventions; ``convention`` names the one that tracks the exact
    dynamics (smaller worst-case mismatch).  ``sector_dims`` lists the sizes
    of the dense blocks that were diagonalized; they sum to ``basis_dim``.
    """

    times: np.ndarray
    leakage: np.ndarray
    deviations: dict
    convention: str
    basis_dim: int
    sector_dims: tuple[int, ...]

    @property
    def deviation(self) -> np.ndarray:
        return self.deviations[self.convention]


def compare_effective(
    p: HubbardParams,
    t_grid,
    nmax: int = 2,
    max_dim: int = EVOLVE_DIM_CAP,
) -> OracleReport:
    """Exactly evolve the cradle state and score the free-chain reduction.

    Requires species-independent parameters and the cradle filling: one
    species-1 atom at site 1, species-0 atoms everywhere else (N0 + N1 = M).
    For each sampled time the exact state is projected onto the
    singly-occupied sector; ``leakage`` is the probability weight outside it
    and ``deviations`` compares the renormalized site probabilities of the
    species-1 atom with the single-excitation chain evolution under each tau
    convention: the one 2t^2/U chain evolved for ``TAU_CONVENTIONS[name] * t``.
    ``p.xi`` enters only the exact Hamiltonian: the effective chain has
    eps = 0, so a non-constant xi is scored against a chain that ignores it.

    H is diagonalized one site-reflection sector at a time: two blocks of
    about half the basis when t0 and xi are palindromic, else one block, the
    whole basis.  Each sector keeps only the M singly-occupied rows of its
    eigenvectors.  ``max_dim`` caps the full basis dimension, checked before
    H is built.
    """
    if not p.species_independent():
        raise ValueError("compare_effective requires species-independent parameters")
    _count("M", p.M, 2)
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
        raise ValueError("t_grid must be a nonempty 1-d sequence of finite times")

    M = p.M
    # max_dim caps the full basis: nothing is enumerated or built past it
    basis = enumerate_basis(M, M - 1, 1, nmax, max_states=max_dim)
    H = build_hamiltonian(p, basis)
    # singly-occupied states by the site of the species-1 atom (site 1: the kick)
    single_idx = np.array([basis.index(1 - e, e) for e in np.eye(M, dtype=int)])
    # H commutes with the site reflection when the chain reads the same
    # backwards (t1 == t0 is checked above).  Decided from the parameters, not
    # from R H R == H: for a non-integer U the reflected diagonal is summed in
    # another site order and can differ by one ulp.
    mirror = np.array_equal(p.t0, p.t0[::-1]) and np.array_equal(p.xi, p.xi[::-1])
    sectors = _sectors(_reflection(basis) if mirror else np.arange(basis.dim))
    modes = [_sector_modes(H, S, single_idx) for S in sectors]

    # the 2t^2/U chain; None when the hopping is frozen (tau == 0)
    tau = effective_params(p).tau
    chain = diagonalize(ChainSpec(M=M, tau=tau, eps=np.zeros(M))) if tau.any() else None

    z0 = kick_state(M, 1)
    p0 = z0.probabilities()
    leakage = np.empty(times.size)
    deviations = {name: np.empty(times.size) for name in TAU_CONVENTIONS}
    for k, t in enumerate(times):
        # psi(t) on the singles; the kicked state e_{single_idx[0]} has sector components rows[0]
        psit = sum(rows @ (np.exp(-1j * lam * t) * rows[0]) for lam, rows in modes)
        praw = np.abs(psit) ** 2
        pnorm = float(praw.sum())
        leakage[k] = 1.0 - pnorm
        for name, scale in TAU_CONVENTIONS.items():
            peff = p0 if chain is None else evolve(chain, z0, scale * t).probabilities()
            deviations[name][k] = float(np.max(np.abs(praw / pnorm - peff)))

    worst = {name: float(np.max(dev)) for name, dev in deviations.items()}
    convention = min(TAU_CONVENTIONS, key=lambda name: worst[name])
    return OracleReport(
        times=_readonly(times.copy()),
        leakage=_readonly(leakage),
        deviations={k: _readonly(v) for k, v in deviations.items()},
        convention=convention,
        basis_dim=basis.dim,
        sector_dims=tuple(S.shape[1] for S in sectors),
    )
