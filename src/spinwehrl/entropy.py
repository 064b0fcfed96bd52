"""Entropy functionals: von Neumann, POVM, Wehrl, closed forms, Renyi moments.

Pure-state Wehrl entropies and their gradients are exact, from the Husimi zeros.
The mixed-state Wehrl integral, also the pure route's oracle, is evaluated by
Gauss-Legendre x uniform-phi quadrature with node doubling until successive
values agree to the requested tolerance. Each level is evaluated ring by ring:
on a theta-ring the Husimi function is a trigonometric polynomial of degree 2l
in phi, so its 2l+1 Fourier coefficients and one real inverse FFT give the
ring's values, with no complex amplitude grid.
Integer Renyi moments are polynomial integrands, so they are integrated
exactly at a quadrature order derived from the degree, on the same rings. The
same moments also come in closed form from the projection of rho^(x)n onto its
maximum-spin part, the diagonal of one polynomial power, which serves as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, log

import numpy as np
from scipy.special import xlogy

from .coherent import amplitude_grid, husimi_zeros, radial_table
from .errors import ConvergenceError, ResourceGuardError
from .quadrature import QuadratureSpec, exact_grid, sphere_points
from .su2 import (
    EIGENVALUE_CLAMP,
    DensityMatrix,
    PureState,
    SpinLabel,
)

MAX_N_THETA = 4096
#: Largest number of bytes one quadrature level (`_level_bytes`), exact-route
#: chunk (`_exact_bytes`), projection band or dense projection output
#: (`channels`) may allocate.
MAX_GRID_BYTES = 512 * 2 ** 20
#: Largest max |f - K prod_i (1 - n.z_i)/2| on the exact grid that keeps a
#: pure state on the root formula; beyond it the state takes the quadrature.
EXACT_RESIDUAL_TOL = 1e-10
#: Most rows per `_exact_wehrl` call in `wehrl_pure_batch`, fewer where
#: MAX_GRID_BYTES allows fewer (`_exact_bytes`).
_WEHRL_CHUNK = 256
#: Most multiply-adds `renyi_wehrl_projector` may spend on its polynomial
#: power, about a second on a 2-CPU desk machine.
RENYI_PROJECTOR_WORK = 100_000_000


@dataclass(frozen=True)
class ChordalData:
    """Squared chordal distances between stellar roots (1 value for spin 1,
    3 values for spin 3/2)."""

    values: tuple

    def __post_init__(self):
        for v in self.values:
            if v < -1e-12:
                raise ValueError(f"negative squared distance {v}")


def clamp_eigenvalues(values) -> np.ndarray:
    """Eigenvalues of a PSD matrix, or of a stack of them along the last axis,
    sorted descending, with noise in [-EIGENVALUE_CLAMP, 0) clamped to 0;
    ValueError below that window."""
    vals = np.sort(np.asarray(values, dtype=float), axis=-1)[..., ::-1]
    if vals.size and vals.min() < -EIGENVALUE_CLAMP:
        raise ValueError(f"eigenvalue {vals.min()} below the -{EIGENVALUE_CLAMP:g} clamp window")
    return np.maximum(vals, 0.0)


def clamped_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a Hermitian PSD matrix, clamped by `clamp_eigenvalues`."""
    return clamp_eigenvalues(np.linalg.eigvalsh(matrix))


def entropy_of_spectrum(vals: np.ndarray) -> float:
    """Shannon entropy -sum x ln x with x ln x := 0 at x = 0."""
    vals = np.asarray(vals, dtype=float)
    pos = vals[vals > 0]
    return float(-np.sum(pos * np.log(pos)))


def von_neumann(rho: DensityMatrix) -> float:
    return entropy_of_spectrum(clamped_spectrum(rho.matrix))


def povm_entropy(rho: DensityMatrix, effects) -> float:
    """Shannon entropy of the outcome distribution p_n = tr(rho E_n)."""
    total = sum(np.asarray(e, dtype=complex) for e in effects)
    if np.max(np.abs(total - np.eye(rho.spin.dim))) > 1e-10:
        raise ValueError("effects do not sum to the identity within 1e-10")
    probs = []
    for e in effects:
        e = np.asarray(e, dtype=complex)
        if np.min(np.linalg.eigvalsh((e + e.conj().T) / 2)) < -1e-10:
            raise ValueError("effect is not positive semidefinite")
        probs.append(max(np.trace(rho.matrix @ e).real, 0.0))
    return entropy_of_spectrum(np.array(probs))


def _level_bytes(l: SpinLabel, spec: QuadratureSpec) -> int:
    """Bytes one `_husimi_rings` level allocates, at most: per ring, the
    (d, d) radial pairs, the coefficients with their temporaries and the
    n_phi real Husimi values; once, the (d, d) index and diagonal arrays."""
    d = l.dim
    return 8 * (spec.n_theta * (d * d + 16 * d + spec.n_phi) + 10 * d * d)


def _husimi_rings(rho: DensityMatrix, spec: QuadratureSpec):
    """Husimi function on the grid `spec`, shape (n_theta, n_phi), clamped into
    [0, 1], and the rings' weights.

    On the ring theta_t, Q = sum_|k|<=2l c_k e^(i k phi) with c_k = sum_m
    r_m r_(m-k) rho[m, m-k] for the radial table r (m descending), so one real
    inverse FFT gives every ring. Harmonics past n_phi / 2 are folded modulo
    n_phi, which is all the grid sees of them. ResourceGuardError, before any
    allocation, when the level needs more than MAX_GRID_BYTES."""
    l, n = rho.spin, spec.n_phi
    if (need := _level_bytes(l, spec)) > MAX_GRID_BYTES:
        raise ResourceGuardError(f"quadrature level ({spec.n_theta}, {n}) at twice_l={l.twice_l} needs "
                                 f"{need} bytes, over the {MAX_GRID_BYTES}-byte guard")
    r, w_theta = radial_table(l, spec.n_theta)
    d = l.dim
    k, a = np.indices((d, d))
    b = np.minimum(a + k, d - 1)
    diagonals = np.where(a + k < d, rho.matrix[a, b], 0)  # [k, a] = rho[a, a+k]
    pairs = r.T[b]  # [k, a, t] = r_(a+k) on ring t
    pairs *= r.T  # ... times r_a
    # c_k = sum_a r_a r_(a+k) rho[a, a+k] as one real batched product over (Re, Im) of rho
    re_im = np.stack([diagonals.real, diagonals.imag], axis=1) @ pairs  # (k, 2, t)
    c = (re_im[:, 0] + 1j * re_im[:, 1]).T  # (n_theta, 2l+1), k = 0 .. 2l
    harmonics = np.concatenate([c[:, :0:-1].conj(), c], axis=1)  # k = -2l .. 2l
    bins = np.arange(-l.twice_l, l.twice_l + 1) % n
    kept = bins <= n // 2  # the other bins hold the conjugates of these
    half = np.zeros((spec.n_theta, min(l.twice_l, n // 2) + 1), dtype=complex)
    np.add.at(half, (slice(None), bins[kept]), n * harmonics[:, kept])
    f = np.fft.irfft(half, n, axis=1)  # zero-pads the half spectrum to n // 2 + 1 bins
    return np.clip(f, 0.0, 1.0, out=f), w_theta


def wehrl_fixed(rho: DensityMatrix, spec: QuadratureSpec) -> float:
    """Wehrl entropy on the one grid `spec`, without refinement: the rings'
    Husimi values from their Fourier coefficients, then the weighted f ln f."""
    f, w_theta = _husimi_rings(rho, spec)
    return float(-rho.spin.dim * (w_theta @ xlogy(f, f, out=f).sum(axis=1)) / spec.n_phi)


def starting_spec(twice_l: int) -> QuadratureSpec:
    """First level of the adaptive Wehrl quadrature for spin twice_l/2."""
    return QuadratureSpec(max(32, 2 * twice_l + 2), max(64, 4 * twice_l + 4))


def wehrl(rho: DensityMatrix, spec: QuadratureSpec | None = None) -> float:
    """Wehrl entropy -(2l+1) \\int dOmega/4pi rho(Omega) ln rho(Omega) by node
    doubling until two levels agree to spec.tol; each level is `wehrl_fixed`,
    ring by ring. ConvergenceError, with the last difference and grid, comes
    before a level would pass MAX_N_THETA or allocate more than MAX_GRID_BYTES."""
    spec = spec or starting_spec(rho.spin.twice_l)
    prev, diff, last = np.inf, np.inf, None
    while spec.n_theta <= MAX_N_THETA and _level_bytes(rho.spin, spec) <= MAX_GRID_BYTES:
        cur = wehrl_fixed(rho, spec)
        diff, prev = abs(cur - prev), cur
        if diff < spec.tol:
            return cur
        last, spec = spec, spec.doubled()
    raise ConvergenceError(f"Wehrl quadrature did not converge below tol={spec.tol}: last difference "
                           f"{diff:.3g} on {last}, next level over the grid limit", diff, last)


def wehrl_pure(psi: PureState, spec: QuadratureSpec | None = None) -> float:
    return float(wehrl_pure_batch(psi.spin, psi.amplitudes[None], spec)[0])


def wehrl_pure_batch(l: SpinLabel, amplitudes: np.ndarray,
                     spec: QuadratureSpec | None = None) -> np.ndarray:
    """Exact Wehrl entropies of pure states, the rows of `amplitudes`.

    f(n) = K prod_i (1 - n.z_i)/2 over the 2l Husimi zeros z_i (C. T. Lee, J.
    Phys. A 21 (1988) 3749), so S_W = -ln K - (2l+1) sum_i \\int dOmega/4pi
    f G(n.z_i): by Funk-Hecke, ln((1 - t)/2) may be cut to G(t) = sum_k<=2l
    lambda_k (2k+1) P_k(t), lambda_0 = -1, lambda_k = -1/(k(k+1)). The degree-4l
    integrand is exact on the (2l+1) x (4l+1) grid, where K normalizes the
    product. A state whose product misses f there by EXACT_RESIDUAL_TOL or
    more takes `wehrl(rho, spec)` instead, once every chunk's arrays are
    released. Rows go in chunks of at most _WEHRL_CHUNK that stay within
    MAX_GRID_BYTES, whatever their number."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    values = np.empty(len(amplitudes))
    grid, row = _exact_bytes(l)
    chunk = min(_WEHRL_CHUNK, max(1, (MAX_GRID_BYTES - grid) // row))
    for start in range(0, len(amplitudes), chunk):
        values[start:start + chunk] = _exact_wehrl(l, amplitudes[start:start + chunk])[0]
    for i in np.flatnonzero(np.isnan(values)):
        values[i] = wehrl(PureState(l, amplitudes[i], normalize=True).density(), spec)
    return values


def wehrl_pure_gradient(l: SpinLabel, v) -> tuple[float, np.ndarray]:
    """Exact Wehrl entropy S of v/|v|, for amplitudes v of any norm n = |v|^2,
    and dS/dv* = -(d/n) [V^T (c a) - v (c . f)] from f = |a|^2 / n, a = V* v,
    c = w (1 + ln f). With ln f replaced by ln K + sum_i G(n.z_i), as in
    `wehrl_pure_batch`, each integrand has degree <= 4l and is exact on the
    same grid; a quadrature fallback value keeps the root formula's gradient."""
    v = np.asarray(v, dtype=complex)
    values, V, w, a, f, log_f = _exact_wehrl(l, v[None])
    c = w * (1 + log_f[0])
    grad = -(l.dim / np.vdot(v, v).real) * (np.einsum("n,ni->i", c * a[0], V) - v * (c @ f[0]))
    if np.isnan(values[0]):
        values[0] = wehrl(PureState(l, v, normalize=True).density())
    return float(values[0]), grad


def _exact_bytes(l: SpinLabel) -> tuple[int, int]:
    """Bytes `_exact_wehrl` allocates at most, for the exact grid with its
    build temporaries, and per row: a, f and residual terms per node, and the
    (2l, nodes) arrays of the zeros' products and Legendre kernel."""
    nodes = (l.twice_l + 1) * (2 * l.twice_l + 1)
    return 8 * nodes * (2 * l.dim + 10), 8 * nodes * (16 + 6 * l.twice_l)


@lru_cache(maxsize=32)
def _exact_grid(l: SpinLabel):
    """Amplitudes V, weights w and unit vectors of the nodes of the exact
    grid of spin l; cached per spin, read-only."""
    spec = exact_grid(l.twice_l)
    V, w = amplitude_grid(l, spec)
    points = sphere_points(spec)
    for x in (V, w, points):
        x.flags.writeable = False
    return V, w, points


def _exact_wehrl(l: SpinLabel, amplitudes: np.ndarray):
    """Entropies of the rows v of `amplitudes`, any norm, by the root formula
    of `wehrl_pure_batch`, NaN for a row that needs its quadrature fallback,
    and the terms of `wehrl_pure_gradient`: the exact grid's amplitudes V and
    weights w, and per row and node a = V* v, f = |a|^2 / |v|^2 and
    ln K + sum_i G(n.z_i). ResourceGuardError, before the grid is built, when
    the grid and the rows need more than MAX_GRID_BYTES."""
    grid, row = _exact_bytes(l)
    if (need := grid + len(amplitudes) * row) > MAX_GRID_BYTES:
        raise ResourceGuardError(f"exact Wehrl grid at twice_l={l.twice_l} needs {need} bytes, "
                                 f"over the {MAX_GRID_BYTES}-byte guard")
    V, w, points = _exact_grid(l)
    a = np.einsum("sj,nj->sn", amplitudes.conj(), V).conj()
    f = (a.real ** 2 + a.imag ** 2) / np.einsum("sj,sj->s", amplitudes.conj(), amplitudes).real[:, None]
    t = husimi_zeros(l, amplitudes) @ points.T  # (states, 2l, nodes)
    product = np.prod((1 - t) / 2, axis=1)
    K = 1 / (l.dim * product @ w)
    residual = np.max(np.abs(f - K[:, None] * product), axis=1)
    k = np.arange(l.twice_l + 1)
    kernel = -(2 * k + 1) / np.maximum(k * (k + 1), 1)  # lambda_k (2k+1)
    log_f = np.log(K)[:, None] + np.polynomial.legendre.legval(t, kernel).sum(axis=1)
    values = -l.dim * np.einsum("sn,sn,n->s", f, log_f, w)
    values[~(residual < EXACT_RESIDUAL_TOL)] = np.nan
    return values, V, w, a, f, log_f


def chordal_data(psi: PureState) -> ChordalData:
    """Pairwise squared chordal distances mu = sin^2(Theta/2) = (1 - cos Theta)/2
    between the stellar roots of psi, the antipodes of its Husimi zeros, for
    geodesic angle Theta: the squared chord on a Bloch sphere of diameter 1."""
    z = husimi_zeros(psi.spin, psi.amplitudes[None])[0]
    i, j = np.triu_indices(len(z), 1)
    return ChordalData(tuple(float(x) for x in (1 - np.sum(z[i] * z[j], axis=1)) / 2))


def wehrl_closed(spin: SpinLabel, chordal: ChordalData) -> float:
    """Closed-form Wehrl entropy for spin 1 (one distance mu) and spin 3/2
    (three distances eps, mu, nu)."""
    if spin.twice_l == 2:
        if len(chordal.values) != 1:
            raise ValueError("spin 1 needs exactly one squared distance")
        (mu,) = chordal.values
        inv_c = 1.0 - mu / 2.0
        if inv_c <= 0:
            raise ValueError("1/c <= 0: squared distance is not a squared chord sin^2(Theta/2) "
                             "on a Bloch sphere of diameter 1")
        c = 1.0 / inv_c
        return 2.0 / 3.0 + c * (mu / 2.0 + inv_c * log(inv_c))
    if spin.twice_l == 3:
        if len(chordal.values) != 3:
            raise ValueError("spin 3/2 needs exactly three squared distances")
        eps, mu, nu = chordal.values
        e1 = (eps + mu + nu) / 3.0
        e2 = (eps * mu + eps * nu + mu * nu) / 6.0
        inv_c = 1.0 - e1
        if inv_c <= 0:
            raise ValueError("1/c <= 0: squared distances are not squared chords sin^2(Theta/2) "
                             "on a Bloch sphere of diameter 1")
        c = 1.0 / inv_c
        return 3.0 / 4.0 + c * (e1 - e2 + inv_c * log(inv_c))
    raise ValueError(f"closed form only available for spin 1 and 3/2, got l={spin.l}")


def renyi_wehrl_moment(rho: DensityMatrix, n: int, spec: QuadratureSpec | None = None) -> float:
    """Moment M_n = (2l+1) \\int dOmega/4pi rho(Omega)^n on the Husimi rings
    of `spec`, checked by `exact_grid(2l, n, spec)`, which is also the default."""
    if n < 1:
        raise ValueError("Renyi order must be a positive integer")
    spec = exact_grid(rho.spin.twice_l, n, spec)
    f, w_theta = _husimi_rings(rho, spec)
    return float(rho.spin.dim * (w_theta @ np.power(f, n, out=f).sum(axis=1)) / spec.n_phi)


def renyi_wehrl_projector(rho: DensityMatrix, n: int) -> float:
    """Moment M_n = (2l+1)/(2nl+1) tr(Pi_nl rho^(x)n) from the projection of
    rho^(x)n onto its maximum-spin part. The stretched states |nl, M> hold
    sqrt(prod_i C(2l, a_i) / C(2nl, M)) on |a_1 ... a_n>, sum_i a_i = M, so
    <nl, M|rho^(x)n|nl, M> = [x^M y^M] P^n / C(2nl, M) for the polynomial
    P(x, y) = sum_ab rho[a, b] sqrt(C(2l, a) C(2l, b)) x^a y^b. P^n comes from
    direct convolutions: FFT rounding would swamp the small coefficients that
    the division by C(2nl, M) brings back. ResourceGuardError before the first
    one when their sum_k<n (2kl+1)^2 (2l+1)^2 multiply-adds, summed in closed
    form with about 1000 more for the dispatch of each of the (2l+1)^2 slice
    updates per step, pass RENYI_PROJECTOR_WORK."""
    if n < 1:
        raise ValueError("Renyi order must be a positive integer")
    tl, d = rho.spin.twice_l, rho.spin.dim
    work = (tl * tl * (n - 1) * n * (2 * n - 1) // 6 + tl * n * (n - 1) + 1001 * n) * d * d
    if work > RENYI_PROJECTOR_WORK:
        raise ResourceGuardError(f"Renyi projector at twice_l={tl}, n={n} needs {work} multiply-adds, "
                                 f"over the {RENYI_PROJECTOR_WORK} guard")
    root = np.sqrt([comb(tl, a) for a in range(d)])
    p = rho.matrix * np.outer(root, root)
    power = p
    for k in range(1, n):
        size = k * tl + 1
        nxt = np.zeros((size + tl, size + tl), dtype=complex)
        for a, b in np.ndindex(d, d):
            nxt[a:a + size, b:b + size] += p[a, b] * power
        power = nxt
    binom = np.array([comb(n * tl, m) for m in range(n * tl + 1)], dtype=float)
    return float(d / (n * tl + 1) * np.sum(np.diagonal(power).real / binom))
