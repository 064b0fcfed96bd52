"""Finite-dimensional SU(2) representation machinery.

Conventions used everywhere in this package:

* a spin label is stored exactly as ``twice_l`` (an integer), so l = twice_l/2
  and the representation dimension is d = twice_l + 1;
* basis vectors are ordered by magnetic quantum number m = l, l-1, ..., -l
  (highest weight first);
* Clebsch-Gordan coefficients follow the Condon-Shortley phase convention;
* the rotation taking the north pole to (theta, phi) is
  R = exp(-i phi Lz) exp(-i theta L2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isfinite, pi

import numpy as np

HERMITICITY_TOL = 1e-12
EIGENVALUE_CLAMP = 1e-12
#: Most states held at a time by the CLI's sampling commands (drawn and
#: valued) and by the optimizer's lockstep groups of starts, which bounds
#: their memory at any --samples or --restarts.
STATE_CHUNK = 256


@dataclass(frozen=True)
class SpinLabel:
    """Half-integer spin stored as twice its value."""

    twice_l: int

    def __post_init__(self):
        if not isinstance(self.twice_l, (int, np.integer)) or self.twice_l < 0:
            raise ValueError(f"twice_l must be a non-negative integer, got {self.twice_l!r}")

    @classmethod
    def from_l(cls, l) -> "SpinLabel":
        twice = 2 * l
        if abs(twice - round(twice)) > 1e-12:
            raise ValueError(f"{l} is not a half-integer")
        return cls(int(round(twice)))

    @property
    def l(self) -> float:
        return self.twice_l / 2

    @property
    def dim(self) -> int:
        return self.twice_l + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order (l down to -l)."""
        return np.arange(self.twice_l, -self.twice_l - 1, -2) / 2


@dataclass(frozen=True)
class SphereDirection:
    """A point Omega = (theta, phi) on the Bloch sphere; phi reduced mod 2*pi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (-1e-12 <= self.theta <= pi + 1e-12):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", float(min(max(self.theta, 0.0), pi)))
        object.__setattr__(self, "phi", float(self.phi) % (2 * pi))

    def unit3(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array([st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)])

    def antipode(self) -> "SphereDirection":
        return SphereDirection(pi - self.theta, self.phi + pi)


def geodesic_angle(a: SphereDirection, b: SphereDirection) -> float:
    """Angle between two sphere directions, in [0, pi]."""
    return float(np.arccos(np.clip(np.dot(a.unit3(), b.unit3()), -1.0, 1.0)))


class PureState:
    """Normalized amplitude vector over |l,m> with m descending."""

    def __init__(self, spin: SpinLabel, amplitudes, normalize: bool = False):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (spin.dim,):
            raise ValueError(f"expected {spin.dim} amplitudes, got shape {amplitudes.shape}")
        norm = np.linalg.norm(amplitudes)
        if not isfinite(norm):
            raise ValueError(f"amplitudes are not finite (norm {norm})")
        if normalize:
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            amplitudes = amplitudes / norm
        elif abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-12")
        self.spin = spin
        self.amplitudes = amplitudes
        self.amplitudes.flags.writeable = False

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.spin, np.outer(self.amplitudes, self.amplitudes.conj()))

    def fidelity(self, other: "PureState") -> float:
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


class DensityMatrix:
    """Hermitian PSD unit-trace matrix over |l,m> with m descending; read-only,
    with the ascending, unclamped `eigenvalues` its positivity check computes."""

    def __init__(self, spin: SpinLabel, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (spin.dim, spin.dim):
            raise ValueError(f"expected {spin.dim}x{spin.dim} matrix, got {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix has a non-finite entry")
        if np.max(np.abs(matrix - matrix.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(matrix).real - 1.0) > 1e-12:
            raise ValueError("trace deviates from 1 beyond 1e-12")
        eigenvalues = np.linalg.eigvalsh(matrix)
        if np.min(eigenvalues) < -EIGENVALUE_CLAMP:
            raise ValueError("matrix has an eigenvalue below -1e-12")
        self.spin = spin
        self.matrix = matrix
        self.matrix.flags.writeable = False
        self.eigenvalues = eigenvalues
        self.eigenvalues.flags.writeable = False

    @classmethod
    def maximally_mixed(cls, spin: SpinLabel) -> "DensityMatrix":
        return cls(spin, np.eye(spin.dim) / spin.dim)


def random_pure(spin: SpinLabel, rng: np.random.Generator) -> PureState:
    """Haar-random pure state: normalized complex standard-normal vector."""
    v = rng.standard_normal(spin.dim) + 1j * rng.standard_normal(spin.dim)
    return PureState(spin, v, normalize=True)


def random_density(spin: SpinLabel, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random mixed state from a Ginibre matrix of the given rank."""
    rank = spin.dim if rank is None else rank
    g = rng.standard_normal((spin.dim, rank)) + 1j * rng.standard_normal((spin.dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(spin, m / np.trace(m).real)


def generators(spin: SpinLabel):
    """Angular momentum matrices (Lz, Lplus, Lminus, L1, L2, L3) for one spin.

    Lz is diagonal with entries m; Lplus|l,m> = sqrt(l(l+1)-m(m+1)) |l,m+1>.
    In the m-descending basis Lplus therefore sits on the first superdiagonal.
    """
    m = spin.m_values()
    l = spin.l
    d = spin.dim
    Lz = np.diag(m).astype(complex)
    Lp = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        Lp[i - 1, i] = np.sqrt(l * (l + 1) - m[i] * (m[i] + 1))
    Lm = Lp.conj().T
    L1 = (Lp + Lm) / 2
    L2 = (Lp - Lm) / (2j)
    L3 = Lz
    return Lz, Lp, Lm, L1, L2, L3


_LOG_FACTORIALS = np.zeros(1)
#: 170! is the largest factorial that is a finite float.
_LAST_FLOAT_FACTORIAL = 170
_STIRLING_BLOCK = 2 ** 16


def log_factorials(n: int) -> np.ndarray:
    """ln i! for i = 0 .. n at least, from one read-only table that grows by
    doubling. The bosonic weights of `fock` and the spin binomials of
    `log_binom_sqrt` are differences of its entries, so none of their factors
    that can exceed 1 is formed as a float. Entries up to 170 are ln of the
    float i!; later ones are Stirling's series m (ln m - 1) + ln(2 pi m)/2 +
    1/(12 m) - 1/(360 m^3) + 1/(1260 m^5), whose next term is below 1e-19 there.
    Every entry is within 2 ulps of ln i!; `math.lgamma` misses ln i! by up to
    3 ulps at small i."""
    global _LOG_FACTORIALS
    if n >= len(_LOG_FACTORIALS):
        size = max(n + 1, 2 * len(_LOG_FACTORIALS))
        table = np.empty(size)
        small = min(size, _LAST_FLOAT_FACTORIAL + 1)
        table[:small] = np.log([float(factorial(i)) for i in range(small)])
        # in blocks, so the temporaries stay small beside the table
        for start in range(small, size, _STIRLING_BLOCK):
            m = np.arange(start, min(start + _STIRLING_BLOCK, size), dtype=float)
            inv_sq = 1 / (m * m)
            table[start:start + len(m)] = (m * (np.log(m) - 1) + 0.5 * np.log(2 * pi * m)
                                           + (1 / 12 - (1 / 360 - inv_sq / 1260) * inv_sq) / m)
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return _LOG_FACTORIALS


def log_binom_sqrt(twice_l: int) -> np.ndarray:
    """0.5*log C(2l, l+m) for m descending, from the `log_factorials` table."""
    lf = log_factorials(twice_l)
    ks = np.arange(twice_l, -1, -1)  # l+m
    return 0.5 * (lf[twice_l] - lf[ks] - lf[twice_l - ks])


@lru_cache(maxsize=64)
def stretched_cg_table(l: SpinLabel, j: SpinLabel) -> np.ndarray:
    """T[a, b] = <l m_a; j M_b | l+j, m_a+M_b>, m-descending indices (m_a+M_b at a+b), in
    closed form sqrt(C(2l, l+m) C(2j, j+M) / C(2l+2j, l+j+m+M))."""
    a, b = np.indices((l.dim, j.dim))
    T = np.exp(log_binom_sqrt(l.twice_l)[a] + log_binom_sqrt(j.twice_l)[b]
               - log_binom_sqrt(l.twice_l + j.twice_l)[a + b])
    T.flags.writeable = False
    return T


def rotation_matrix(spin: SpinLabel, direction: SphereDirection) -> np.ndarray:
    """Wigner rotation R(Omega) = exp(-i phi Lz) exp(-i theta L2)."""
    from scipy.linalg import expm  # imported here so the package loads without scipy

    Lz, _, _, _, L2, _ = generators(spin)
    return expm(-1j * direction.phi * Lz) @ expm(-1j * direction.theta * L2)


def rotate(state, direction: SphereDirection):
    """Rotate a PureState or DensityMatrix by R(Omega)."""
    R = rotation_matrix(state.spin, direction)
    if isinstance(state, PureState):
        return PureState(state.spin, R @ state.amplitudes)
    if isinstance(state, DensityMatrix):
        return DensityMatrix(state.spin, R @ state.matrix @ R.conj().T)
    raise TypeError(f"cannot rotate object of type {type(state).__name__}")
