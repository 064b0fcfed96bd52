"""Symmetric SU(N) representations on bosonic occupation bases.

H(N, M) is the space of M bosons in N modes, dimension C(M+N-1, N-1), with
occupation tuples ordered lexicographically descending. The cloning channel
symmetrizes rho (x) 1 over k extra copies. Its Kraus operator
sqrt(k!/mu!) (a*)^mu sends occupation n to n + mu, so each of its rows has at
most one nonzero entry: one cached gather table per (N, M, k) holds them all,
read straight from the occupation basis. Read the other way, the same table
gives the annihilation strings behind the reduced density maps. On pure
states, or stacks of them, the majorization spectra, the measure-and-prepare
channel and the decomposition check's reduced densities are each one Gram
matrix of images gathered from these tables. The coherent condensate's cloning
spectrum and the coefficients of the measure-and-prepare decomposition into
cloning channels are closed-form. No factor of a weight that can exceed 1 is
formed as a float: scalars are ratios of exact integers, and arrays are
differences of `su2.log_factorials`. The dense Kraus sum and symmetric isometry,
the per-sample SVD, the per-entry reduced-density trace and the least-squares
fit of the decomposition are the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, perm

import numpy as np

from .entropy import MAX_GRID_BYTES, clamped_spectrum
from .errors import DecompositionError, ResourceGuardError
from .su2 import log_factorials

CLONING_DIM_GUARD = 10_000
#: Peak bytes of `_cloning_gather` per (Kraus operator, output state) entry;
#: tracemalloc measured 25-29 B on cold tables of a million entries or more.
_GATHER_ENTRY_BYTES = 32
#: Prefix-sum excess over the coherent spectrum that is not a violation.
MAJORIZATION_EPS = 1e-9
#: Largest stack of gathered images, in bytes, per chunk of `_state_chunks`.
_CHUNK_BYTES = 4 * 2 ** 20


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


def _occupation_rank(occ: np.ndarray, n_bosons: int) -> np.ndarray:
    """Position in `_occupation_basis` of each row of `occ`, occupations of
    n_bosons bosons: the number that agree with it before some mode i and put
    more bosons into mode i. With b_i bosons after mode i there are
    C(b_i + N - i - 2, N - i - 1) of those (hockey-stick identity)."""
    n_modes = occ.shape[1]
    after = n_bosons - np.cumsum(occ, axis=1)
    table = np.array([[comb(b + n_modes - i - 2, n_modes - i - 1) for b in range(n_bosons + 1)]
                      for i in range(n_modes - 1)], dtype=np.intp).reshape(n_modes - 1, n_bosons + 1)
    return table[np.arange(n_modes - 1), after[:, :-1]].sum(axis=1)


def _cloning_output_space(n_modes: int, n_bosons: int, k: int) -> SymmetricSpace:
    """H(N, M+k), after checking its dimension against CLONING_DIM_GUARD."""
    out = SymmetricSpace(n_modes, n_bosons + k)
    if out.dim > CLONING_DIM_GUARD:
        raise ResourceGuardError(f"output dimension {out.dim} exceeds the guard")
    return out


def _log_factorial_bytes(n: int) -> int:
    """Bytes of the `su2.log_factorials` table once it reaches ln n!: it
    grows by doubling, so up to 2(n+1) entries of 8 B."""
    return 16 * (n + 1)


@lru_cache(maxsize=None)
def _cloning_gather(n_modes: int, n_bosons: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators K_mu = sqrt(k!/mu!) (a*)^mu / sqrt(k! C(M+N-1+k, k))
    of the k-copy cloning channel H(N, M) -> H(N, M+k) as a gather table
    (src, w), both (n_kraus, dim_out), cached and read-only: row r
    (occupation m) of K_mu holds w[mu, r] = exp(1/2 sum_i ln C(m_i, mu_i)
    - 1/2 ln C(M+N-1+k, k)) in column src[mu, r], the index of m - mu; w = 0
    and src = 0 where m - mu < 0. Adding mu keeps the basis order, so the
    valid columns of each row hold H(N, M) in order. The output guard and
    the byte guard of the table and of ln i! up to M+N-1+k are checked
    before anything is built."""
    out = _cloning_output_space(n_modes, n_bosons, k)
    n_kraus = comb(k + n_modes - 1, k)
    top = n_bosons + n_modes - 1 + k
    if (need := _GATHER_ENTRY_BYTES * n_kraus * out.dim + _log_factorial_bytes(top)) > MAX_GRID_BYTES:
        raise ResourceGuardError(f"cloning gather table at (N, M, k) = ({n_modes}, {n_bosons}, {k}) needs "
                                 f"{need} bytes, over the {MAX_GRID_BYTES}-byte guard")
    lg = log_factorials(top)
    occ = np.array(out.basis).reshape(out.dim, n_modes)
    mu = np.array(_occupation_basis(n_modes, k)).reshape(n_kraus, n_modes)
    log_w = np.full((n_kraus, out.dim), lg[k] + lg[top - k] - lg[top])
    valid = np.ones(log_w.shape, dtype=bool)
    for m_i, mu_i in zip(occ.T, mu.T):  # + ln C(m_i, mu_i), one mode at a time
        rest = m_i - mu_i[:, None]
        valid &= rest >= 0
        log_w += lg[m_i]
        log_w -= lg[mu_i][:, None]
        log_w -= lg[np.maximum(rest, 0, out=rest)]
    log_w[~valid] = -np.inf
    log_w *= 0.5
    w = np.exp(log_w, out=log_w)
    src = np.zeros(w.shape, dtype=np.intp)
    src[valid] = np.tile(np.arange(SymmetricSpace(n_modes, n_bosons).dim), n_kraus)
    src.setflags(write=False)
    w.setflags(write=False)
    return src, w


def coherent_condensate(space: SymmetricSpace, omega) -> np.ndarray:
    """Amplitudes of |Omega (x) ... (x) Omega> in the occupation basis;
    ResourceGuardError, before the ln i! table grows, when it would pass
    MAX_GRID_BYTES."""
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (space.n_modes,):
        raise ValueError(f"direction vector must have {space.n_modes} components")
    if not omega.any():
        raise ValueError("zero direction vector")
    if (need := _log_factorial_bytes(space.n_bosons)) > MAX_GRID_BYTES:
        raise ResourceGuardError(f"ln i! table up to i = {space.n_bosons} needs {need} bytes, "
                                 f"over the {MAX_GRID_BYTES}-byte guard")
    occ = np.array(space.basis).reshape(space.dim, space.n_modes)
    modulus = np.abs(omega)
    log_modulus = np.log(modulus, out=np.full(space.n_modes, -np.inf), where=modulus > 0)
    # ln of sqrt(M! / prod_i n_i!) prod_i |omega_i|^n_i with 0 ln 0 = 0, less
    # ln sqrt(M!) and the maximum, which the normalization restores
    log_powers = np.multiply(occ, log_modulus, out=np.zeros(occ.shape), where=occ > 0)
    log_amps = log_powers.sum(axis=1) - 0.5 * log_factorials(space.n_bosons)[occ].sum(axis=1)
    amps = np.exp(log_amps - log_amps.max()) * np.exp(1j * (occ @ np.angle(omega)))
    return amps / np.linalg.norm(amps)


@dataclass(frozen=True)
class FockChannelOutput:
    space_out: SymmetricSpace
    matrix: np.ndarray
    spectrum: np.ndarray


def apply_cloning(space: SymmetricSpace, mat: np.ndarray, k: int) -> np.ndarray:
    """Trace-preserving linear extension of the cloning channel to arbitrary
    (not necessarily normalized) matrices on H(N, M), or stacks of them along
    the leading axes: sum_mu (w_mu w_mu^T) * mat[..., src_mu, src_mu] over the
    gather table."""
    src, w = _cloning_gather(space.n_modes, space.n_bosons, k)
    mat = np.asarray(mat)
    return sum(np.outer(w_mu, w_mu) * mat[..., src_mu[:, None], src_mu] for src_mu, w_mu in zip(src, w))


def coherent_cloning_spectrum(n_modes: int, n_bosons: int, k: int) -> np.ndarray:
    """Descending spectrum of Phi^k on a coherent condensate, zero-padded to
    dim H(N, M+k). For Omega = e_0 (any other is a rotation of it), K_mu sends
    |M, 0, ..., 0> to the distinct state |M + mu_0, mu_1, ...>, so the output is
    diagonal with eigenvalue C(M + mu_0, mu_0) / C(M+N-1+k, k) per mu, that is
    with multiplicity C(k - mu_0 + N - 2, N - 2)."""
    out = _cloning_output_space(n_modes, n_bosons, k)
    total = comb(n_bosons + n_modes - 1 + k, k)
    values = [comb(n_bosons + mu[0], mu[0]) / total for mu in _occupation_basis(n_modes, k)]
    spectrum = np.zeros(out.dim)
    spectrum[:len(values)] = values
    return spectrum


def cloning_channel(space: SymmetricSpace, rho: np.ndarray, k: int) -> FockChannelOutput:
    """Phi^k(rho): symmetrize rho with k maximally mixed extra bosons."""
    rho = np.asarray(rho, dtype=complex)
    out = apply_cloning(space, rho, k)
    out = (out + out.conj().T) / 2
    spectrum = clamped_spectrum(out)
    return FockChannelOutput(SymmetricSpace(space.n_modes, space.n_bosons + k), out, spectrum)


@lru_cache(maxsize=None)
def _annihilation_gather(n_modes: int, n_bosons: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """S_mu = sqrt(ell!/mu!) a^mu / sqrt(ell! C(M+N-1, ell)) : H(N, M) ->
    H(N, M - ell), one per occupation mu of ell bosons, as a cached, read-only
    gather pair (up, c), both (n_mu, dim_low): row x of S_mu holds c[mu, x] in
    column up[mu, x], the index of x + mu. S_mu is K_mu^T for the ell-copy
    cloning of H(N, M - ell), so c holds that gather table's weights."""
    low = n_bosons - ell
    w = _cloning_gather(n_modes, low, ell)[1]
    x = np.array(_occupation_basis(n_modes, low)).reshape(1, -1, n_modes)
    mu = np.array(_occupation_basis(n_modes, ell)).reshape(-1, 1, n_modes)
    up = _occupation_rank((x + mu).reshape(-1, n_modes), n_bosons).reshape(len(w), -1)
    c = np.take_along_axis(w, up, axis=1)
    up.setflags(write=False)
    c.setflags(write=False)
    return up, c


def reduced_density(space: SymmetricSpace, rho: np.ndarray, ell: int) -> np.ndarray:
    """gamma^ell(rho) on H(N, ell) from normal-ordered expectations,
    gamma_{mu nu} = tr(S_mu rho S_nu^T) = sum_x c_mu(x) c_nu(x)
    rho[up_mu(x), up_nu(x)] over `_annihilation_gather`, times the scale
    ell! C(M+N-1, ell) that its weights leave out; dim H(N, M) is held to
    CLONING_DIM_GUARD.

    Normalized so that gamma^ell of a coherent condensate equals
    M!/(M-ell)! |Omega_ell><Omega_ell|; trace is M!/(M-ell)! * tr(rho).
    """
    if ell < 0 or ell > space.n_bosons:
        raise ValueError(f"need 0 <= ell <= {space.n_bosons}, got {ell}")
    up, c = _annihilation_gather(space.n_modes, space.n_bosons, ell)
    gram = np.einsum("ix,jx,ijx->ij", c, c, np.asarray(rho)[up[:, None], up[None]])
    return perm(space.n_bosons + space.n_modes - 1, ell) * gram


def _image_gram(psi: np.ndarray, src: np.ndarray, w: np.ndarray) -> np.ndarray:
    """B B^dag for the images B = psi[..., src] w of a state or stack (..., dim):
    from the cloning table it shares its nonzero spectrum with the output on
    psi psi^dag, from the annihilation table it is the reduced density."""
    B = psi[..., src] * w
    return B @ np.swapaxes(B.conj(), -1, -2)


def measure_prepare_channel(space: SymmetricSpace, psi: np.ndarray, k: int) -> np.ndarray:
    """Dual Gram channel <psi (x) id| P_sym |psi (x) id> on H(N, k), normalized
    to unit trace, for a state or a stack (..., dim): the symmetric isometry's
    coefficients are the cloning weights up to a constant, so it is the
    conjugate Gram of the cloning Kraus images over its trace."""
    src, w = _cloning_gather(space.n_modes, space.n_bosons, k)
    T = _image_gram(np.asarray(psi, dtype=complex), src, w).conj()
    return T / np.trace(T, axis1=-2, axis2=-1).real[..., None, None]


def _state_chunks(dim: int, samples: int, seed: int, image_size: int):
    """Normalized Haar-random states on C^dim, drawn in order (real then
    imaginary part of each), in stacks of at least one whose gathered images
    of image_size entries per state stay within _CHUNK_BYTES."""
    chunk = max(1, _CHUNK_BYTES // (np.dtype(complex).itemsize * image_size))
    rng = np.random.default_rng(seed)
    for start in range(0, samples, chunk):
        x = rng.standard_normal((min(chunk, samples - start), 2, dim))
        psi = x[:, 0] + 1j * x[:, 1]
        yield psi / np.linalg.norm(psi, axis=1, keepdims=True)


@dataclass(frozen=True)
class DecompositionResult:
    coefficients: np.ndarray
    residual: float


def decompose_measure_prepare(n_modes: int, m_bosons: int, k: int,
                              batch: int = 20, seed: int = 0) -> DecompositionResult:
    """Coefficients of measure-and-prepare = sum_l C_l Phi^l(gamma^(k-l)) in
    closed form: Wick-ordering the entries a^nu (a*)^mu of the Gram matrix
    <K_nu psi, K_mu psi> gives C_l proportional to C(k+N-1, l)/(k-l)!, and 0
    where k-l > M (more removals than bosons). gamma^(k-l) has trace
    M!/(M-k+l)!, and the weights p_l = C_l M!/(M-k+l)! are the hypergeometric
    distribution C(k+N-1, l) C(M, k-l) / C(M+N-1+k, k), which sums to 1 by
    Vandermonde's identity; each is a ratio of exact integers. residual is
    max |sum_l C_l Phi^l(gamma^(k-l)) - MP| over a batch of random pure
    states, where C_l gamma^(k-l) is q_l = C(k+N-1, l) C(M+N-1, k-l) /
    C(M+N-1+k, k) times the Gram matrix of the annihilation table's weights;
    DecompositionError when it exceeds 1e-9."""
    space = SymmetricSpace(n_modes, m_bosons)
    src = _cloning_gather(n_modes, m_bosons, k)[0]  # its guards, before any big integer
    total = comb(m_bosons + n_modes - 1 + k, k)
    ells = range(max(k - m_bosons, 0), k + 1)
    coefs = np.zeros(k + 1)
    for ell in ells:
        coefs[ell] = comb(k + n_modes - 1, ell) * comb(m_bosons, k - ell) / (total * perm(m_bosons, k - ell))
    residual = 0.0
    for psi in _state_chunks(space.dim, max(batch, 1), seed, src.size):
        # gamma^(k-l)(psi psi^dag) straight from the amplitudes, then Phi^l
        fit = sum(comb(k + n_modes - 1, ell) * comb(m_bosons + n_modes - 1, k - ell) / total
                  * apply_cloning(SymmetricSpace(n_modes, k - ell),
                                  _image_gram(psi, *_annihilation_gather(n_modes, m_bosons, k - ell)), ell)
                  for ell in ells)
        residual = max(residual, float(np.max(np.abs(fit - measure_prepare_channel(space, psi, k)))))
    if residual > 1e-9:
        raise DecompositionError(f"decomposition residual {residual} exceeds 1e-9")
    return DecompositionResult(coefs, residual)


@dataclass(frozen=True)
class MajorizationReport:
    samples: int
    violations: int
    worst_violation: float
    coherent_spectrum: np.ndarray


def sun_coherent_majorization_test(n_modes: int, m_bosons: int, k: int,
                                   samples: int, seed: int = 0,
                                   eps: float = MAJORIZATION_EPS) -> MajorizationReport:
    """Compare sorted cloning-channel spectra of Haar-random pure states
    against the coherent (condensate) benchmark; a state violates when one of
    its prefix sums exceeds the coherent one by more than eps.

    Each chunk of `_state_chunks` takes one stacked Gram eigensolve."""
    src, w = _cloning_gather(n_modes, m_bosons, k)
    coh_spec = coherent_cloning_spectrum(n_modes, m_bosons, k)
    # both spectra vanish past n_kraus values, so the prefix sums stop there
    coh_prefix = np.cumsum(coh_spec[:len(src)])
    violations = 0
    worst = 0.0
    for psi in _state_chunks(SymmetricSpace(n_modes, m_bosons).dim, samples, seed, src.size):
        gaps = np.max(np.cumsum(clamped_spectrum(_image_gram(psi, src, w)), axis=1) - coh_prefix, axis=1)
        violations += int(np.count_nonzero(gaps > eps))
        worst = max(worst, float(gaps.max()))
    return MajorizationReport(samples, violations, worst, coh_spec)
