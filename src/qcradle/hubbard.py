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
tau above and the tau_j = t_j^2/U convention: it evolves both and records
which one tracks the exact site probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .chains import ChainSpec, kick_state, _readonly
from .dynamics import evolve
from .errors import NotFreeFermionError, TooLargeError
from .spectral import diagonalize

BASIS_STATE_CAP = 200_000
EVOLVE_DIM_CAP = 2048

TAU_CONVENTIONS = ("2t^2/U", "t^2/U")


@dataclass(frozen=True)
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
        if self.M < 1:
            raise ValueError("M must be >= 1")
        t0 = np.atleast_1d(np.asarray(self.t0, dtype=float))
        t1 = np.atleast_1d(np.asarray(self.t1, dtype=float))
        if t0.shape != (self.M - 1,) or t1.shape != (self.M - 1,):
            raise ValueError(f"hopping lists must have length M-1 = {self.M - 1}")
        for name, u in (("U", self.U), ("U0", self.U0), ("U1", self.U1)):
            if not u > 0.0:
                raise ValueError(f"{name} must be > 0")
        xi = np.zeros(self.M) if self.xi is None else np.asarray(self.xi, dtype=float)
        if xi.shape != (self.M,):
            raise ValueError(f"xi must have length M = {self.M}")
        object.__setattr__(self, "t0", _readonly(t0))
        object.__setattr__(self, "t1", _readonly(t1))
        object.__setattr__(self, "xi", _readonly(xi))

    def species_independent(self) -> bool:
        return bool(
            np.array_equal(self.t0, self.t1) and self.U0 == self.U and self.U1 == self.U
        )


@dataclass(frozen=True)
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


def reduce_to_chain(e: EffectiveParams, eps, tol: float) -> ChainSpec:
    """Build the free hopping chain, rejecting residual interactions.

    Requires max(|gamma_j|, |sigma_j|) <= tol * max(tau_j) on every bond;
    otherwise the effective model is not a free single-excitation chain and
    NotFreeFermionError identifies the first offending bond (1-based).
    """
    eps = np.asarray(eps, dtype=float)
    M = e.tau.size + 1
    if eps.shape != (M,):
        raise ValueError(f"eps must have length M = {M}")
    bound = tol * float(np.max(e.tau)) if e.tau.size else 0.0
    residual = np.maximum(np.abs(e.gamma), np.abs(e.sigma))
    bad = np.nonzero(residual > bound)[0]
    if bad.size:
        j = int(bad[0]) + 1
        raise NotFreeFermionError(
            j,
            f"bond {j}: residual interaction {residual[bad[0]]:.3e} exceeds "
            f"{tol:g} * max(tau) = {bound:.3e}",
        )
    return ChainSpec(M=M, tau=e.tau.copy(), eps=eps)


def _compositions(M: int, N: int, nmax: int):
    """Occupation tuples of N bosons on M sites, each site <= nmax, in
    ascending lexicographic order."""
    if M == 1:
        if 0 <= N <= nmax:
            yield (N,)
        return
    for first in range(0, min(N, nmax) + 1):
        for rest in _compositions(M - 1, N - first, nmax):
            yield (first,) + rest


def _count_compositions(M: int, N: int, nmax: int) -> int:
    counts = np.zeros(N + 1, dtype=np.int64)
    counts[0] = 1
    for _ in range(M):
        new = np.zeros(N + 1, dtype=np.int64)
        for total in range(N + 1):
            lo = max(0, total - nmax)
            new[total] = counts[lo : total + 1].sum()
        counts = new
    return int(counts[N])


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Deterministic occupation-number basis at fixed atom counts (N0, N1)."""

    M: int
    N0: int
    N1: int
    nmax: int
    states: tuple
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)


def enumerate_basis(M: int, N0: int, N1: int, nmax: int, max_states: int = BASIS_STATE_CAP) -> FockBasis:
    """All (species-0, species-1) occupation pairs at fixed atom counts.

    Ordering is lexicographic on the concatenated occupation vector, so the
    basis (and everything built on it) is reproducible.  nmax >= 2 keeps the
    virtual doubly-occupied states that mediate the second-order processes.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if N0 < 0 or N1 < 0:
        raise ValueError("atom counts must be >= 0")
    if nmax < 1 or N0 > M * nmax or N1 > M * nmax:
        raise ValueError("nmax too small to host the atoms")
    c0 = _count_compositions(M, N0, nmax)
    c1 = _count_compositions(M, N1, nmax)
    total = c0 * c1
    if total > max_states:
        raise TooLargeError(f"basis would hold {total} states, cap is {max_states}")
    s0 = list(_compositions(M, N0, nmax))
    s1 = list(_compositions(M, N1, nmax))
    states = tuple((a, b) for a in s0 for b in s1)
    index = {s: i for i, s in enumerate(states)}
    return FockBasis(M=M, N0=N0, N1=N1, nmax=nmax, states=states, index=index)


def build_hamiltonian(p: HubbardParams, basis: FockBasis) -> sp.csr_matrix:
    """Sparse matrix of the two-species model in the given basis.

    Hopping matrix elements carry the boson factors sqrt(n+1) sqrt(n); hops
    that would exceed the occupancy cap nmax are excluded, so the caller must
    pick nmax large enough for the accuracy needed (nmax = 2 suffices for the
    second-order physics; see the convergence test).
    """
    if p.M != basis.M:
        raise ValueError(f"params have M={p.M}, basis has M={basis.M}")
    M = p.M
    hops = (p.t0, p.t1)
    rows, cols, vals = [], [], []
    diag = np.empty(basis.dim)
    for i, (n0, n1) in enumerate(basis.states):
        d = 0.0
        for j in range(M):
            d += p.U0 * n0[j] * (n0[j] - 1) + p.U1 * n1[j] * (n1[j] - 1)
            d += p.xi[j] * (n0[j] + n1[j])
            d += p.U * (n0[j] - 0.5) * (n1[j] - 0.5)
        diag[i] = d
        for alpha, vec in enumerate((n0, n1)):
            t = hops[alpha]
            other = n1 if alpha == 0 else n0
            for j in range(M - 1):
                if t[j] == 0.0:
                    continue
                for src, dst in ((j + 1, j), (j, j + 1)):
                    if vec[src] > 0 and vec[dst] < basis.nmax:
                        amp = -t[j] * np.sqrt(vec[dst] + 1.0) * np.sqrt(vec[src])
                        moved = list(vec)
                        moved[src] -= 1
                        moved[dst] += 1
                        key = (tuple(moved), other) if alpha == 0 else (other, tuple(moved))
                        rows.append(basis.index[key])
                        cols.append(i)
                        vals.append(amp)
    H = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    H = H.tocsr()
    H += sp.diags(diag).tocsr()
    return H


def _dense_eigh(H, max_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the (sparse or dense) Hermitian H."""
    dim = H.shape[0]
    if dim > max_dim:
        raise TooLargeError(f"dimension {dim} exceeds dense-evolution cap {max_dim}")
    return np.linalg.eigh(H.toarray() if sp.issparse(H) else np.asarray(H))


def exact_evolve(H, state: np.ndarray, t: float, max_dim: int = EVOLVE_DIM_CAP) -> np.ndarray:
    """e^{-i H t} state via full Hermitian eigendecomposition."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (H.shape[0],):
        raise ValueError("state length must match the matrix dimension")
    lam, V = _dense_eigh(H, max_dim)
    return V @ (np.exp(-1j * lam * t) * (V.conj().T @ state))


@dataclass(frozen=True)
class OracleReport:
    """Exact-vs-effective comparison along a time grid.

    ``deviations`` holds the per-time max site-probability mismatch for both
    tau conventions; ``convention`` names the one that tracks the exact
    dynamics (smaller worst-case mismatch).
    """

    times: np.ndarray
    leakage: np.ndarray
    deviations: dict
    convention: str
    basis_dim: int

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
    convention.
    """
    if not p.species_independent():
        raise ValueError("compare_effective requires species-independent parameters")
    if p.M < 2:
        raise ValueError("the cradle configuration needs M >= 2")
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all():
        raise ValueError("t_grid must be a nonempty 1-d sequence of finite times")

    M = p.M
    # a basis the dense path would refuse is not worth enumerating
    basis = enumerate_basis(M, M - 1, 1, nmax, max_states=max_dim)
    lam, V = _dense_eigh(build_hamiltonian(p, basis), max_dim)

    kick = (tuple([0] + [1] * (M - 1)), tuple([1] + [0] * (M - 1)))
    psi0 = np.zeros(basis.dim)
    psi0[basis.index[kick]] = 1.0
    coef = V.T @ psi0

    # singly-occupied states, keyed by the site holding the species-1 atom
    single_idx = np.empty(M, dtype=int)
    for i, (n0, n1) in enumerate(basis.states):
        if all(a + b == 1 for a, b in zip(n0, n1)):
            single_idx[n1.index(1)] = i

    tau_full = effective_params(p).tau
    frozen = float(np.max(np.abs(tau_full))) == 0.0
    chains = {}
    if not frozen:
        chains["2t^2/U"] = diagonalize(ChainSpec(M=M, tau=tau_full.copy(), eps=np.zeros(M)))
        chains["t^2/U"] = diagonalize(ChainSpec(M=M, tau=tau_full / 2.0, eps=np.zeros(M)))

    z0 = kick_state(M, 1)
    p0 = z0.probabilities()
    leakage = np.empty(times.size)
    deviations = {name: np.empty(times.size) for name in TAU_CONVENTIONS}
    for k, t in enumerate(times):
        psit = V @ (np.exp(-1j * lam * t) * coef)
        praw = np.abs(psit[single_idx]) ** 2
        pnorm = float(praw.sum())
        leakage[k] = 1.0 - pnorm
        for name in TAU_CONVENTIONS:
            if frozen:
                peff = p0
            else:
                peff = evolve(chains[name], z0, t).probabilities()
            deviations[name][k] = float(np.max(np.abs(praw / pnorm - peff)))

    worst = {name: float(np.max(dev)) for name, dev in deviations.items()}
    convention = min(TAU_CONVENTIONS, key=lambda name: worst[name])
    return OracleReport(
        times=_readonly(times.copy()),
        leakage=_readonly(leakage),
        deviations={k: _readonly(v) for k, v in deviations.items()},
        convention=convention,
        basis_dim=basis.dim,
    )
