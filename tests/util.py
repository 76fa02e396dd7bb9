"""Shared test helpers: independent dense-matrix oracles, random chains,
spectra seeded with given eigenpairs, spies on the transfer layer's solves
and on the edge route's phase calls, and a per-value CSV formatter."""

from __future__ import annotations

import itertools

import numpy as np

import qcradle.spectral
from qcradle import ChainSpec, HubbardParams, Spectrum


def dense_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense M x M single-particle Hamiltonian: H[j, j+1] = H[j+1, j] = -tau_j,
    H[j, j] = eps_j."""
    return np.diag(spec.eps) - np.diag(spec.tau, 1) - np.diag(spec.tau, -1)


def dense_eig(spec: ChainSpec):
    """Independent spectral oracle: dense symmetric eigensolve of H."""
    w, v = np.linalg.eigh(dense_hamiltonian(spec))
    return w, v


def dense_propagate(spec: ChainSpec, z0: np.ndarray, t: float) -> np.ndarray:
    """Independent evolution oracle: e^{-iHt} z0 via the dense eigenbasis."""
    w, v = dense_eig(spec)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ z0))


def seeded_spectrum(spec: ChainSpec, omega, g) -> Spectrum:
    """A Spectrum of ``spec`` whose eigenpairs are the given (omega, g), as
    if its one eigensolve had returned them; the transfer path still solves
    for its own eigenvalues."""
    sp = Spectrum(spec)
    sp.__dict__["_eigenpairs"] = (np.asarray(omega, dtype=float), np.asarray(g, dtype=float))
    return sp


class SolveSpy:
    """Records, under a pytest ``monkeypatch``, each call that the transfer layer makes
    to ``spectral._stevd`` and ``spectral._end_weights``, and runs it: the size of each
    eigenvalue-only solve in ``values``, of each solve with eigenvectors in ``vectors``,
    and the arguments of each end-weight call in ``weights``."""

    def __init__(self, monkeypatch):
        self.values, self.vectors, self.weights = [], [], []
        solve, weights = qcradle.spectral._stevd, qcradle.spectral._end_weights

        def stevd(d, e, vectors=True):
            (self.vectors if vectors else self.values).append(len(d))
            return solve(d, e, vectors)

        def end_weights(*args):
            self.weights.append(args)
            return weights(*args)

        monkeypatch.setattr(qcradle.spectral, "_stevd", stevd)
        monkeypatch.setattr(qcradle.spectral, "_end_weights", end_weights)

    @property
    def calls(self) -> int:
        return len(self.values) + len(self.vectors) + len(self.weights)


class PhaseSpy:
    """Counts, under a pytest ``monkeypatch``, the calls made to ``spectral._edge_phase``,
    the boundary phase that every step of the edge route's root iteration reads, and runs
    each one."""

    def __init__(self, monkeypatch):
        self.calls = 0
        phase = qcradle.spectral._edge_phase

        def counted(*args):
            self.calls += 1
            return phase(*args)

        monkeypatch.setattr(qcradle.spectral, "_edge_phase", counted)


def unfold_modes(modes, M: int):
    """All M eigenvalues and end weights g_{n1} g_{nM} behind the transfer's
    modes (nu, p, q); the folded modes of an eps = 0 chain are mirrored back
    with omega_{M+1-n} = -omega_n and w_{M+1-n} = (-1)^(M-1) w_n."""
    nu, p, q = modes
    if p is q:
        return nu, p
    half = (q if p is None else p) / 2.0
    if M % 2:
        half[-1] *= 2.0  # the zero mode is not doubled
    omega = np.concatenate([nu, -nu[::-1][M % 2 :]])
    return omega, np.concatenate([half, (-1) ** (M - 1) * half[::-1][M % 2 :]])


def reference_csv(meta: str, header, columns) -> bytes:
    """Independent CSV oracle: the bytes of a writer that formats one value
    at a time, ``str(int(v))`` for an integer and ``format(float(v), ".17g")``
    for anything else."""

    def fmt(v) -> str:
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g")

    lines = [meta] + ([] if header is None else [",".join(header)])
    lines += [",".join(fmt(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


def random_chain(rng: np.random.Generator, M: int | None = None, symmetric: bool = False) -> ChainSpec:
    if M is None:
        M = int(rng.integers(1, 31))
    if symmetric:
        # mirror halves exactly so the symmetry holds in floating point
        ht = rng.uniform(0.2, 2.5, size=(M - 1 + 1) // 2)
        tau = np.concatenate([ht, ht[: (M - 1) // 2][::-1]])
        he = rng.uniform(-1.0, 1.0, size=(M + 1) // 2)
        eps = np.concatenate([he, he[: M // 2][::-1]])
    else:
        tau = rng.uniform(0.2, 2.5, size=M - 1)
        eps = rng.uniform(-1.0, 1.0, size=M)
    return ChainSpec(M=M, tau=tau, eps=eps)


def residual_norm(spec: ChainSpec, omega: np.ndarray, g: np.ndarray) -> float:
    """max_n max_j |(H g_n)_j - omega_n g_nj| for row-wise eigenvectors."""
    H = dense_hamiltonian(spec)
    R = g @ H.T - omega[:, None] * g
    return float(np.max(np.abs(R))) if R.size else 0.0


def hubbard_reference(p: HubbardParams, N0: int, N1: int, nmax: int):
    """Independent two-species oracle: the basis as (n0, n1) tuple pairs,
    filtered from every occupation vector by atom count, and the dense H
    assembled state by state with the same floating-point operations as the
    library."""
    vectors = list(itertools.product(range(nmax + 1), repeat=p.M))
    states = [(a, b) for a in vectors if sum(a) == N0 for b in vectors if sum(b) == N1]
    index = {s: i for i, s in enumerate(states)}
    H = np.zeros((len(states), len(states)))
    for i, (n0, n1) in enumerate(states):
        d = 0.0
        for j in range(p.M):
            d += p.U0 * n0[j] * (n0[j] - 1) + p.U1 * n1[j] * (n1[j] - 1)
            d += p.xi[j] * (n0[j] + n1[j])
            d += p.U * (n0[j] - 0.5) * (n1[j] - 0.5)
        H[i, i] = d
        for alpha, (vec, t) in enumerate(((n0, p.t0), (n1, p.t1))):
            for j in range(p.M - 1):
                if t[j] == 0.0:
                    continue
                for src, dst in ((j + 1, j), (j, j + 1)):
                    if vec[src] > 0 and vec[dst] < nmax:
                        moved = list(vec)
                        moved[src] -= 1
                        moved[dst] += 1
                        key = (tuple(moved), n1) if alpha == 0 else (n0, tuple(moved))
                        H[index[key], i] = -t[j] * np.sqrt(vec[dst] + 1.0) * np.sqrt(vec[src])
    return states, H
