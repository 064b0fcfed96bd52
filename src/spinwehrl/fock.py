"""Symmetric SU(N) representations on bosonic occupation bases.

H(N, M) is the space of M bosons in N modes, dimension C(M+N-1, N-1), with
occupation tuples ordered lexicographically descending. The cloning channel
symmetrizes rho (x) 1 over k extra copies via creation-operator strings; the
measure-and-prepare channel is its dual Gram picture; reduced density maps
remove bosons via normal-ordered expectations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod, sqrt

import numpy as np

from .entropy import clamped_spectrum
from .errors import DecompositionError, ResourceGuardError

CLONING_DIM_GUARD = 10_000


@lru_cache(maxsize=None)
def _occupation_basis(n_modes: int, n_bosons: int) -> tuple:
    if n_modes == 1:
        return ((n_bosons,),)
    out = []
    for first in range(n_bosons, -1, -1):
        for rest in _occupation_basis(n_modes - 1, n_bosons - first):
            out.append((first,) + rest)
    return tuple(out)


@dataclass(frozen=True)
class SymmetricSpace:
    """M bosons in N modes (the symmetric SU(N) irrep)."""

    n_modes: int
    n_bosons: int

    def __post_init__(self):
        if self.n_modes < 1 or self.n_bosons < 0:
            raise ValueError("need n_modes >= 1 and n_bosons >= 0")

    @property
    def basis(self) -> tuple:
        return _occupation_basis(self.n_modes, self.n_bosons)

    @property
    def dim(self) -> int:
        return comb(self.n_bosons + self.n_modes - 1, self.n_modes - 1)

    def index(self, occ: tuple) -> int:
        return _basis_index(self.n_modes, self.n_bosons)[occ]


@lru_cache(maxsize=None)
def _basis_index(n_modes: int, n_bosons: int) -> dict:
    return {occ: i for i, occ in enumerate(_occupation_basis(n_modes, n_bosons))}


@lru_cache(maxsize=None)
def annihilation_operator(n_modes: int, n_bosons: int, mode: int) -> np.ndarray:
    """a_mode as a matrix H(N, M) -> H(N, M-1); entries sqrt(n_mode)."""
    src = SymmetricSpace(n_modes, n_bosons)
    dst = SymmetricSpace(n_modes, n_bosons - 1)
    A = np.zeros((dst.dim, src.dim))
    for col, occ in enumerate(src.basis):
        if occ[mode] > 0:
            lowered = occ[:mode] + (occ[mode] - 1,) + occ[mode + 1:]
            A[dst.index(lowered), col] = sqrt(occ[mode])
    return A


@lru_cache(maxsize=None)
def monomial_annihilation(n_modes: int, n_bosons: int, mu: tuple) -> np.ndarray:
    """Product prod_i a_i^(mu_i) as a matrix H(N, M) -> H(N, M - sum mu)."""
    op = np.eye(SymmetricSpace(n_modes, n_bosons).dim)
    m = n_bosons
    for mode, count in enumerate(mu):
        for _ in range(count):
            op = annihilation_operator(n_modes, m, mode) @ op
            m -= 1
    return op


def coherent_condensate(space: SymmetricSpace, omega) -> np.ndarray:
    """Amplitudes of |Omega (x) ... (x) Omega> in the occupation basis."""
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (space.n_modes,):
        raise ValueError(f"direction vector must have {space.n_modes} components")
    norm = np.linalg.norm(omega)
    if norm == 0:
        raise ValueError("zero direction vector")
    omega = omega / norm
    M = space.n_bosons
    amps = np.array([
        sqrt(factorial(M) / prod(factorial(n) for n in occ)) * prod(w ** n for w, n in zip(omega, occ))
        for occ in space.basis
    ])
    return amps / np.linalg.norm(amps)


@dataclass(frozen=True)
class FockChannelOutput:
    space_out: SymmetricSpace
    matrix: np.ndarray
    spectrum: np.ndarray


def cloning_kraus(n_modes: int, n_bosons: int, k: int) -> list[np.ndarray]:
    """Kraus family of the k-copy cloning channel H(N, M) -> H(N, M+k),
    one operator sqrt(k!/mu!) (a*)^mu per occupation mu of the k new bosons,
    before the overall 1/sqrt(s) normalization."""
    ops = []
    for mu in _occupation_basis(n_modes, k):
        weight = sqrt(factorial(k) / prod(factorial(n) for n in mu))
        ops.append(weight * monomial_annihilation(n_modes, n_bosons + k, mu).T)
    return ops


def cloning_normalization(n_modes: int, n_bosons: int, k: int) -> float:
    """Scalar s with sum K^dag K = s * identity for `cloning_kraus`:
    s = k! C(M+N-1+k, k)."""
    return float(factorial(k) * comb(n_bosons + n_modes - 1 + k, k))


def apply_cloning(space: SymmetricSpace, mat: np.ndarray, k: int) -> np.ndarray:
    """Trace-preserving linear extension of the cloning channel to arbitrary
    (not necessarily normalized) matrices on H(N, M)."""
    out_space = SymmetricSpace(space.n_modes, space.n_bosons + k)
    if out_space.dim > CLONING_DIM_GUARD:
        raise ResourceGuardError(f"output dimension {out_space.dim} exceeds the guard")
    s = cloning_normalization(space.n_modes, space.n_bosons, k)
    kraus = cloning_kraus(space.n_modes, space.n_bosons, k)
    return sum(K @ mat @ K.conj().T for K in kraus) / s


def cloning_channel(space: SymmetricSpace, rho: np.ndarray, k: int) -> FockChannelOutput:
    """Phi^k(rho): symmetrize rho with k maximally mixed extra bosons."""
    rho = np.asarray(rho, dtype=complex)
    out = apply_cloning(space, rho, k)
    out = (out + out.conj().T) / 2
    spectrum = clamped_spectrum(out)
    return FockChannelOutput(SymmetricSpace(space.n_modes, space.n_bosons + k), out, spectrum)


def reduced_density(space: SymmetricSpace, rho: np.ndarray, ell: int) -> np.ndarray:
    """gamma^ell(rho) on H(N, ell) from normal-ordered expectations.

    Normalized so that gamma^ell of a coherent condensate equals
    M!/(M-ell)! |Omega_ell><Omega_ell|; trace is M!/(M-ell)! * tr(rho).
    """
    if ell < 0 or ell > space.n_bosons:
        raise ValueError(f"need 0 <= ell <= {space.n_bosons}, got {ell}")
    rho = np.asarray(rho, dtype=complex)
    small = SymmetricSpace(space.n_modes, ell)
    basis = small.basis
    gamma = np.zeros((small.dim, small.dim), dtype=complex)
    mono = {mu: monomial_annihilation(space.n_modes, space.n_bosons, mu) for mu in basis}
    fac = {mu: prod(factorial(n) for n in mu) for mu in basis}
    for i, mu in enumerate(basis):
        for jdx, nu in enumerate(basis):
            op = mono[nu].conj().T @ mono[mu]  # (a*)^nu a^mu on H(N, M)
            gamma[i, jdx] = factorial(ell) / sqrt(fac[mu] * fac[nu]) * np.trace(rho @ op)
    return gamma


@lru_cache(maxsize=None)
def symmetric_embedding_isometry(n_modes: int, m_bosons: int, k_bosons: int) -> np.ndarray:
    """Isometry H(N, M+k) -> H(N, M) (x) H(N, k); the adjoint implements the
    symmetric projector restricted to its image.

    Coefficient of |mu> (x) |nu> in |n> is sqrt(prod_i C(n_i, mu_i) / C(M+k, k)).
    """
    big = SymmetricSpace(n_modes, m_bosons + k_bosons)
    left = SymmetricSpace(n_modes, m_bosons)
    right = SymmetricSpace(n_modes, k_bosons)
    W = np.zeros((left.dim * right.dim, big.dim))
    scale = 1.0 / sqrt(comb(m_bosons + k_bosons, k_bosons))
    for col, occ in enumerate(big.basis):
        for a, mu in enumerate(left.basis):
            nu = tuple(n - m for n, m in zip(occ, mu))
            if min(nu) < 0:
                continue
            coeff = prod(comb(n, m) for n, m in zip(occ, mu))
            W[a * right.dim + right.index(nu), col] = sqrt(coeff) * scale
    return W


def measure_prepare_channel(space: SymmetricSpace, psi: np.ndarray, k: int) -> np.ndarray:
    """Dual Gram channel <psi (x) id| P_sym |psi (x) id> on H(N, k),
    normalized to unit trace."""
    psi = np.asarray(psi, dtype=complex)
    W = symmetric_embedding_isometry(space.n_modes, space.n_bosons, k)
    right = SymmetricSpace(space.n_modes, k)
    W3 = W.reshape(space.dim, right.dim, -1)
    X = np.einsum("m,man->an", psi, W3.conj())
    T = X.conj() @ X.T
    T = (T + T.conj().T) / 2
    return T / np.trace(T).real


@dataclass(frozen=True)
class DecompositionResult:
    coefficients: np.ndarray
    residual: float


def decompose_measure_prepare(n_modes: int, m_bosons: int, k: int,
                              batch: int = 20, seed: int = 0) -> DecompositionResult:
    """Fit measure-and-prepare = sum_l C_l Phi^l(gamma^(k-l)) over a batch of
    random pure states; C_l with k-l > M (more removals than bosons) are
    reported as 0. Raises DecompositionError when the joint fit residual
    exceeds 1e-9."""
    space = SymmetricSpace(n_modes, m_bosons)
    rng = np.random.default_rng(seed)
    valid = [ell for ell in range(k + 1) if k - ell <= m_bosons]
    rows = []
    targets = []
    small_dim = SymmetricSpace(n_modes, k).dim
    for _ in range(max(batch, 1)):
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        proj = np.outer(psi, psi.conj())
        feats = []
        for ell in valid:
            gamma = reduced_density(space, proj, k - ell)
            feats.append(apply_cloning(SymmetricSpace(n_modes, k - ell), gamma, ell).ravel())
        target = measure_prepare_channel(space, psi, k).ravel()
        rows.append(np.column_stack(feats))
        targets.append(target)
    A = np.vstack(rows)
    b = np.concatenate(targets)
    # real least squares over stacked real/imag parts
    A2 = np.vstack([A.real, A.imag])
    b2 = np.concatenate([b.real, b.imag])
    coefs, *_ = np.linalg.lstsq(A2, b2, rcond=None)
    residual = float(np.max(np.abs(A2 @ coefs - b2)))
    if residual > 1e-9:
        raise DecompositionError(f"decomposition residual {residual} exceeds 1e-9")
    full = np.zeros(k + 1)
    for ell, c in zip(valid, coefs):
        full[ell] = c
    return DecompositionResult(full, residual)


@dataclass(frozen=True)
class MajorizationReport:
    samples: int
    violations: int
    worst_violation: float
    coherent_spectrum: np.ndarray


def sun_coherent_majorization_test(n_modes: int, m_bosons: int, k: int,
                                   samples: int, seed: int = 0,
                                   eps: float = 1e-9) -> MajorizationReport:
    """Compare sorted cloning-channel spectra of Haar-random pure states
    against the coherent (condensate) benchmark."""
    space = SymmetricSpace(n_modes, m_bosons)
    rng = np.random.default_rng(seed)
    e0 = np.zeros(n_modes)
    e0[0] = 1.0
    coh = coherent_condensate(space, e0)
    coh_spec = cloning_channel(space, np.outer(coh, coh.conj()), k).spectrum
    coh_prefix = np.cumsum(coh_spec)
    s = cloning_normalization(n_modes, m_bosons, k)
    kraus = np.stack(cloning_kraus(n_modes, m_bosons, k))
    violations = 0
    worst = 0.0
    for _ in range(samples):
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        B = kraus @ psi  # (n_kraus, dim_out); output = B^T conj-gram / s
        spec = np.sort(np.linalg.svd(B, compute_uv=False) ** 2)[::-1] / s
        spec = np.pad(spec, (0, len(coh_prefix) - len(spec)))
        prefix = np.cumsum(spec)
        gap = float(np.max(prefix - coh_prefix))
        worst = max(worst, gap)
        if gap > eps:
            violations += 1
    return MajorizationReport(samples, violations, worst, coh_spec)
