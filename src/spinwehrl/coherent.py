"""Spin coherent states, Husimi symbols, and the stellar representation.

Phase convention: the coherent state at Omega = (theta, phi) has amplitudes

    a_m = C(2l, l+m)^(1/2) cos^(l+m)(theta/2) sin^(l-m)(theta/2) e^(-i m phi)

which keeps the state single-valued in phi. All rotation-invariant outputs
(entropies, spectra, overlaps) are independent of this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, pi, sqrt

import numpy as np

from .quadrature import QuadratureSpec, exact_grid, sphere_nodes
from .su2 import (
    DensityMatrix,
    PureState,
    SphereDirection,
    SpinLabel,
    generators,
    geodesic_angle,
    log_binom_sqrt,
)

__all__ = [
    "StellarRoots",
    "coherent_state",
    "amplitude_grid",
    "radial_table",
    "husimi",
    "overlap_sq",
    "completeness_defect",
    "stellar_roots",
    "husimi_zeros",
    "state_from_roots",
    "closest_coherent",
]


@dataclass(frozen=True)
class StellarRoots:
    """Unordered multiset of 2l Bloch-sphere points encoding a pure state."""

    spin: SpinLabel
    roots: tuple

    def __post_init__(self):
        if len(self.roots) != self.spin.twice_l:
            raise ValueError(f"expected {self.spin.twice_l} roots, got {len(self.roots)}")


def coherent_state(l: SpinLabel, direction: SphereDirection) -> PureState:
    amps = _amplitudes(l, np.array([direction.theta]), np.array([direction.phi]))[0, 0]
    return PureState(l, amps, normalize=True)


def _radial(l: SpinLabel, thetas: np.ndarray) -> np.ndarray:
    """Moduli r_m = C(2l, l+m)^(1/2) cos^(l+m)(theta/2) sin^(l-m)(theta/2) of
    the coherent amplitudes, m descending, shape (nt, d)."""
    tl = l.twice_l
    m2 = np.arange(tl, -tl - 1, -2)
    c = np.cos(thetas / 2)[:, None]
    s = np.sin(thetas / 2)[:, None]
    return np.exp(log_binom_sqrt(tl))[None, :] * c ** ((tl + m2) / 2) * s ** ((tl - m2) / 2)


def _amplitudes(l: SpinLabel, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Coherent amplitudes on a theta x phi product grid, shape (nt, np, d)."""
    phase = np.exp(-1j * np.outer(phis, np.arange(l.twice_l, -l.twice_l - 1, -2) / 2))
    return _radial(l, thetas)[:, None, :] * phase[None, :, :]


@lru_cache(maxsize=64)
def radial_table(l: SpinLabel, n_theta: int):
    """Radial amplitudes r_m(theta_i) on the n_theta Gauss-Legendre rings of
    the quadrature, shape (n_theta, d), and the rings' weights, summing to 1;
    cached, read-only. The amplitude at (theta_i, phi) is r_m(theta_i) e^(-i m phi)."""
    thetas, _, w_theta, _ = sphere_nodes(QuadratureSpec(n_theta, 1))
    r = _radial(l, thetas)
    r.flags.writeable = False
    w_theta.flags.writeable = False
    return r, w_theta


def amplitude_grid(l: SpinLabel, spec: QuadratureSpec):
    """Coherent amplitudes V, shape (n_theta * n_phi, d), on the quadrature
    grid and its flattened weights w, summing to 1; built on every call (the
    pure-state Wehrl routes cache their exact grid, `entropy._exact_grid`)."""
    thetas, phis, wt, wp = sphere_nodes(spec)
    return _amplitudes(l, thetas, phis).reshape(-1, l.dim), np.outer(wt, wp).ravel()


def husimi(rho: DensityMatrix, direction: SphereDirection) -> float:
    """Lower symbol <Omega|rho|Omega>, clamped into [0, 1]."""
    a = coherent_state(rho.spin, direction).amplitudes
    val = np.vdot(a, rho.matrix @ a).real
    return float(min(max(val, 0.0), 1.0))


def overlap_sq(l: SpinLabel, a: SphereDirection, b: SphereDirection) -> float:
    """|<Omega_l|Omega'_l>|^2 = cos^(4l)(Theta/2) with Theta the geodesic angle."""
    cos_half_sq = (1.0 + np.cos(geodesic_angle(a, b))) / 2.0
    return float(cos_half_sq ** l.twice_l)


def completeness_defect(l: SpinLabel, spec: QuadratureSpec) -> float:
    """Max-norm of (2l+1) \\int dOmega/4pi |Omega><Omega| minus the identity."""
    V, w = amplitude_grid(l, exact_grid(l.twice_l, spec=spec))
    resolution = (l.dim) * np.einsum("n,ni,nj->ij", w, V, V.conj())
    return float(np.max(np.abs(resolution - np.eye(l.dim))))


@lru_cache(maxsize=64)
def _majorana_weights(twice_l: int) -> np.ndarray:
    """(-1)^(l-m) C(2l, l+m)^(1/2) for l+m = 0..2l, the factors that take the
    amplitudes, m ascending, to the Majorana coefficients; cached, read-only."""
    weights = (-1.0) ** np.arange(twice_l, -1, -1) * np.exp(log_binom_sqrt(twice_l))[::-1]
    weights.flags.writeable = False
    return weights


def _majorana_coefficients(l: SpinLabel, amplitudes: np.ndarray):
    """Ascending coefficients of each state's Majorana polynomial (rows of
    `amplitudes` are states), scaled to unit maximum modulus, and the degrees
    left once numerically vanishing (below 1e-13) leading coefficients are
    dropped."""
    coefs = _majorana_weights(l.twice_l) * np.asarray(amplitudes)[:, ::-1]
    scale = np.max(np.abs(coefs), axis=1, keepdims=True)
    if not scale.all():
        raise ValueError("zero state has no stellar representation")
    coefs /= scale
    return coefs, l.twice_l - np.argmax(np.abs(coefs[:, ::-1]) >= 1e-13, axis=1)


def _majorana_roots(coefs: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Roots of the polynomials from `_majorana_coefficients` in the
    stereographic chart z = tan(theta/2) e^(i phi), shape (n, 2l).

    Degree deficiency contributes roots at the south pole, z = inf, listed
    last. Rows of one degree share a stacked companion-matrix eigensolve. The
    roots are left unpolished: they are the exact roots of a polynomial within
    rounding of the input even where they cluster, which a per-root Newton
    step breaks (a coherent state at twice_l = 4 then misses its Husimi
    function by 6e-7 instead of 8e-16).
    """
    n, tl = coefs.shape[0], coefs.shape[1] - 1
    roots = np.full((n, tl), np.inf, dtype=complex)
    for deg, count in enumerate(np.bincount(degrees, minlength=tl + 1).tolist()):
        if deg == 0 or count == 0:
            continue
        rows = slice(None) if count == n else np.flatnonzero(degrees == deg)
        asc = coefs[rows, : deg + 1]
        companion = np.zeros((len(asc), deg, deg), dtype=complex)
        companion[:, 0, :] = -asc[:, deg - 1::-1] / asc[:, deg:]
        companion.reshape(-1, deg * deg)[:, deg::deg + 1] = 1.0  # the subdiagonal
        roots[rows, :deg] = np.linalg.eigvals(companion)
    return roots


def stellar_roots(psi: PureState) -> StellarRoots:
    """Majorana roots of a pure state as Bloch-sphere points: the antipodes of
    its Husimi zeros, with the roots at z = inf on the south pole."""
    points = -husimi_zeros(psi.spin, psi.amplitudes[None])[0]
    return StellarRoots(psi.spin, tuple(SphereDirection(float(np.arccos(np.clip(z, -1.0, 1.0))),
                                                        float(np.arctan2(y, x))) for x, y, z in points))


def husimi_zeros(l: SpinLabel, amplitudes: np.ndarray) -> np.ndarray:
    """Unit vectors of the 2l zeros of each state's Husimi function, shape
    (n, 2l, 3): the antipodes of the Majorana roots; rows of `amplitudes` are
    states."""
    z = _majorana_roots(*_majorana_coefficients(l, amplitudes))
    # the root at z has Bloch vector (2z, 1 - |z|^2) / (1 + |z|^2) = (v h, +-(h - 1))
    # with h = 2 / (1 + |v|^2), for v = z inside the unit disc and v = 1/z*
    # outside it, where z = inf is v = 0 and the sign is -
    outside = np.abs(z) > 1
    v = np.reciprocal(z.conj(), out=z.copy(), where=outside)
    h = 2 / (1 + (v.real ** 2 + v.imag ** 2))
    zeros = np.empty(z.shape + (3,))
    zeros[..., 0] = -h * v.real
    zeros[..., 1] = -h * v.imag
    zeros[..., 2] = np.where(outside, h - 1, 1 - h)
    return zeros


def state_from_roots(roots: StellarRoots) -> PureState:
    """Normalized symmetrized product state of the given Bloch-sphere points."""
    tl = roots.spin.twice_l
    finite = []
    n_south = 0
    for d in roots.roots:
        if pi - d.theta < 1e-9:
            n_south += 1
        else:
            finite.append(np.tan(d.theta / 2) * np.exp(1j * d.phi))
    # polynomial prod (z - z_i), truncated by south-pole (infinite) roots
    coefs = np.zeros(tl + 1, dtype=complex)
    base = np.polynomial.polynomial.polyfromroots(finite) if finite else np.array([1.0 + 0j])
    coefs[: len(base)] = base
    if n_south + len(base) - 1 != tl:
        raise ValueError("inconsistent root multiplicities")
    return PureState(roots.spin, (coefs / _majorana_weights(tl))[::-1], normalize=True)


@lru_cache(maxsize=16)
def _start_grid(twice_l: int):
    """Polar angles, uniform in cos(theta), and twice as many uniform
    azimuths of the start grid of `closest_coherent`, with the radial
    amplitudes on the rings, shape (n_theta, d), and the phases e^(-i m phi)
    on the azimuths, shape (2 n_theta, d), whose product is the coherent
    amplitude grid; cached, read-only. The overlap's peaks narrow as
    1/sqrt(2l), and so does the grid's spacing from twice_l = 17 on: 32 x 64
    below, 160 x 320 at twice_l = 400."""
    n_theta = max(32, ceil(8 * sqrt(twice_l)))
    theta = np.arccos(np.linspace(1, -1, n_theta))
    phi = 2 * pi * np.arange(2 * n_theta) / (2 * n_theta)
    radial = _radial(SpinLabel(twice_l), theta)
    phase = np.exp(-1j * np.outer(phi, np.arange(twice_l, -twice_l - 1, -2) / 2))
    for x in (theta, phi, radial, phase):
        x.flags.writeable = False
    return theta, phi, radial, phase


def _newton_ascent(n: np.ndarray, derivatives, tol: float, max_steps: int = 50) -> np.ndarray:
    """Unit vector that maximizes a function on the sphere, by Newton steps
    from n. `derivatives(n)` gives the tangent gradient and the Riemannian
    Hessian at n. Each step uses |eigenvalues| of the Hessian, an ascent
    direction also where it is not negative definite, and moves at most
    0.2 rad (two spacings of the start grid) along a great circle, in no
    chart and so with no pole to avoid; it stops once the gradient is below
    tol."""
    for _ in range(max_steps):
        g, hess = derivatives(n)
        if np.linalg.norm(g) <= tol:
            break
        lam, U = np.linalg.eigh(hess + np.outer(n, n))  # n n^T keeps n out of the step
        step = U @ (U.T @ g / np.maximum(np.abs(lam), 1e-300))
        angle = min(np.linalg.norm(step), 0.2)
        n = np.cos(angle) * n + np.sin(angle) * step / np.linalg.norm(step)
        n /= np.linalg.norm(n)  # else |n| drifts and the tangent projector with it
    return n


def _angles(n: np.ndarray) -> tuple[float, float]:
    """(theta, phi) of the unit vector n, accurate at the poles too."""
    return float(np.arctan2(np.hypot(n[0], n[1]), n[2])), float(np.arctan2(n[1], n[0]))


def closest_coherent(psi: PureState) -> tuple[SphereDirection, float]:
    """Coherent state of maximal Husimi overlap with psi.

    Newton steps on ln |<n|psi>|^2, from the amplitudes, start at the maximum
    of |<n|psi>|^2 on a coarse grid (`_start_grid`, 32x64 up to twice_l = 16).
    The fidelity is the amplitude overlap at the n found. When the maximum is
    degenerate (e.g. rotationally symmetric states) any one maximizer is
    returned.
    """
    l = psi.spin
    thetas, phis, radial, phase = _start_grid(l.twice_l)
    overlap = (radial * psi.amplitudes.conj()) @ phase.T  # conj <n|psi>, with no (rings, azimuths, d) array
    i, j = np.unravel_index(np.argmax(overlap.real ** 2 + overlap.imag ** 2), overlap.shape)
    n = np.array([np.sin(thetas[i]) * np.cos(phis[j]), np.sin(thetas[i]) * np.sin(phis[j]), np.cos(thetas[i])])

    # exp(i t.L)|n> is the coherent state at n turned by the angle |t| about
    # t, so for t normal to n, c(t) = <n| exp(i t.L) |psi> = c (1 + i t.w -
    # t^T (M/c) t / 2 + ...) with w = <n|L|psi>/c and M the symmetrized
    # <n|L_k L_l|psi>, and ln|c(t)|^2 has gradient -2 Im w and Hessian
    # 2 Re(w w^T - M/c) in t; t moves n along t x n = J t
    L = np.array(generators(l)[3:])
    L_psi = L @ psi.amplitudes
    LL_psi = L @ L_psi.T  # [k, :, m] = L_k L_m psi

    def overlap_derivatives(n):
        theta, phi = _angles(n)
        a = _amplitudes(l, np.array([theta]), np.array([phi]))[0, 0].conj()
        c = a @ psi.amplitudes
        w = (L_psi @ a) / c
        M = (a @ LL_psi) / c
        J = np.array([[0, n[2], -n[1]], [-n[2], 0, n[0]], [n[1], -n[0], 0]])  # J t = t x n
        return J @ (-2 * w.imag), J @ (2 * (np.outer(w, w) - (M + M.T) / 2).real) @ J.T

    # the gradient grows with 2l, and so does its rounding: 1e-12 at twice_l = 400
    n = _newton_ascent(n, overlap_derivatives, 1e-13 * l.dim)
    direction = SphereDirection(*_angles(n))
    return direction, psi.fidelity(coherent_state(l, direction))
