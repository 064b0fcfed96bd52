"""Majorization order on spectra and gradient-based entropy minimization.

`minimize_entropy` runs a numpy L-BFGS search from each of its random starts.
Each search is a generator that yields the points it needs valued, so the
searches of a group of starts advance in lockstep: one stacked objective call
per round values the pending point of every search, and each search keeps its
own correction pairs, line search and stops. The objectives (`objective_fn`)
take one point or a stack: the exact Wehrl entropy and its gradient from the
Husimi zeros, or a Gram-spectrum entropy through one stacked eigh.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import channels, entropy
from .coherent import closest_coherent
from .su2 import STATE_CHUNK, PureState, SphereDirection, SpinLabel

#: Largest twice_l `minimize_entropy` accepts; the CLI checks it before sampling.
OPTIMIZER_MAX_TWICE_L = 16
#: Stops of the L-BFGS search: a relative decrease (f_k - f_k+1)/max(|f_k|, |f_k+1|, 1)
#: of at most ftol, or no gradient component above gtol. scipy's L-BFGS-B
#: defaults, ftol 2.2e-9 and gtol 1e-5, leave single starts up to 8.1e-9 above
#: the coherent minimum at twice_l = 8 (40 seeds); these reach 9.8e-13 for 38%
#: more iterations.
_LBFGS_OPTIONS = {"ftol": 1e-13, "gtol": 1e-9}
#: Correction pairs the search keeps (Liu & Nocedal's m), and its caps on
#: iterations and on evaluations per line search, as in scipy's L-BFGS-B.
_LBFGS_MEMORY = 10
_LBFGS_MAX_ITERATIONS = 15000
_LINE_SEARCH_MAX_EVALS = 20
#: Weak Wolfe constants: sufficient decrease c1 and curvature c2.
_WOLFE_C1, _WOLFE_C2 = 1e-4, 0.9


def _padded(a: np.ndarray, b: np.ndarray):
    n = max(len(a), len(b))
    return np.pad(a, (0, n - len(a))), np.pad(b, (0, n - len(b)))


def majorizes(a, b, eps: float = 1e-9) -> bool:
    """True iff every prefix sum of a dominates the one of b within eps.

    Requires equal traces within eps; shorter vectors are zero-padded.
    """
    a, b = _padded(entropy.clamp_eigenvalues(a), entropy.clamp_eigenvalues(b))
    if abs(a.sum() - b.sum()) > eps:
        raise ValueError(f"trace mismatch {abs(a.sum() - b.sum())} exceeds eps={eps}")
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - eps))


def worst_majorization_violation(a, b) -> float:
    """Largest amount by which a prefix sum of b exceeds the one of a."""
    a, b = _padded(entropy.clamp_eigenvalues(a), entropy.clamp_eigenvalues(b))
    return float(np.max(np.cumsum(b) - np.cumsum(a)))


def schur_concave_check(f, a, b, convex: bool = False, tol: float = 1e-9) -> bool:
    """Consistency check: majorizes(a, b) must imply sum f(a) <= sum f(b)
    for concave f (reversed for convex f)."""
    if not majorizes(a, b):
        raise ValueError("precondition failed: a does not majorize b")
    fa = float(sum(f(x) for x in entropy.clamp_eigenvalues(a)))
    fb = float(sum(f(x) for x in entropy.clamp_eigenvalues(b)))
    return fa >= fb - tol if convex else fa <= fb + tol


@dataclass(frozen=True)
class OptimizationResult:
    best_state: PureState
    best_value: float
    iterations: int
    restarts: int
    converged: bool
    closest_direction: SphereDirection
    coherent_fidelity: float


def _real_gradient(g: np.ndarray) -> np.ndarray:
    """Gradient in x = (Re v, Im v) of a real function with dS/dv* = g, row by
    row along the last axis."""
    return 2 * np.concatenate([g.real, g.imag], axis=-1)


def _gram_search(l: SpinLabel, factor):
    """Search function of the entropy of G = A(v)^dag A(v) / |v|^2 for a factor A
    linear in v; the gradient is Hellmann-Feynman through one eigh, stacked
    over the rows of x."""
    d = l.dim
    basis = [PureState(l, e) for e in np.eye(d)]
    support = np.logical_or.reduce([factor(e) != 0 for e in basis])
    B = np.stack([factor(e)[support] for e in basis])  # A(e_i) on the joint support

    def search(x):
        v = x[..., :d] + 1j * x[..., d:]
        n = np.vecdot(v, v).real[..., None]
        A = np.zeros(v.shape[:-1] + support.shape, dtype=complex)
        A[..., support] = np.einsum("...i,ik->...k", v, B)
        lam, U = np.linalg.eigh(A.conj().swapaxes(-1, -2) @ A / n[..., None])
        # the one clamp rule, back in eigh's ascending order to stay paired with U
        lam = entropy.clamp_eigenvalues(lam)[..., ::-1]
        # M = U diag(dlam) U^dag; the floor under the logarithm only touches
        # terms that vanish with their eigenvalue, as x ln x -> 0
        log_lam = np.log(np.maximum(lam, np.finfo(float).tiny))
        dlam = 1 + log_lam
        AM = A @ ((U * dlam[..., None, :]) @ U.conj().swapaxes(-1, -2))
        adjoint = np.einsum("ik,...k->...i", B, AM[..., support].conj()).conj()  # A^*(A M)
        grad = -(adjoint - v * np.sum(lam * dlam, axis=-1)[..., None]) / n
        return -np.sum(lam * log_lam, axis=-1), _real_gradient(grad)

    return search


def objective_fn(l: SpinLabel, objective):
    """The function x -> (entropy, gradient in x) of an entropy objective over
    pure states, where x holds the amplitudes x[:d] + i x[d:] of any norm: one
    point, shape (2d,), or a stack of them, shape (k, 2d), valued row by row
    in one call, to shapes (k,) and (k, 2d).

    The value is the one the library reports for the normalized state: the
    exact pure-state Wehrl entropy, or the entropy of the Gram spectrum."""
    d = l.dim
    if objective == "wehrl":
        def search(x):
            values, grads = entropy.wehrl_pure_gradient(l, x[..., :d] + 1j * x[..., d:])
            return values, _real_gradient(grads)

        return search
    if objective == "angular":
        return _gram_search(l, channels.angular_factor)
    if isinstance(objective, tuple) and objective[0] == "projection":
        j = objective[1]
        return _gram_search(l, lambda psi: channels.projection_dual_factor(psi, j))
    raise ValueError(f"unknown objective {objective!r}")


def _cubic_minimizer(a, fa, ga, b, fb, gb) -> float:
    """Minimizer of the cubic through (a, fa) and (b, fb) with slopes ga and gb
    (Nocedal & Wright, eq. 3.59); NaN where that cubic has none."""
    d1 = ga + gb - 3 * (fa - fb) / (a - b)
    disc = d1 * d1 - ga * gb
    if not disc >= 0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), b - a)
    den = gb - ga + 2 * d2
    return b - (b - a) * (gb + d2 - d1) / den if den else math.nan


def _wolfe_step(x, f, slope, d, t):
    """A point x + t d that meets the weak Wolfe conditions, given the slope
    g.d < 0 at x, as (x, f, g); None if none is found in
    _LINE_SEARCH_MAX_EVALS evaluations. A generator, as `_lbfgs`: it yields
    each trial point and is sent its (value, gradient). From the trial step t
    it extrapolates until a step fails sufficient decrease, then brackets,
    both by safeguarded cubic interpolation on the values and slopes at the
    last two steps."""
    lo = (0.0, f, slope)  # meets sufficient decrease but still descends steeply
    hi = None  # fails sufficient decrease, or is not finite
    for _ in range(_LINE_SEARCH_MAX_EVALS):
        x_t = x + t * d
        f_t, g_t = yield x_t
        slope_t = float(g_t @ d)
        if not f_t <= f + _WOLFE_C1 * t * slope:
            hi = (t, f_t, slope_t)
        elif slope_t < _WOLFE_C2 * slope:
            prev, lo = lo, (t, f_t, slope_t)
        else:
            return x_t, f_t, g_t
        if hi is None:  # grow the step 1.1 to 4 times
            t_c = _cubic_minimizer(*prev, *lo)
            t = 4 * t if math.isnan(t_c) else min(max(t_c, 1.1 * t), 4 * t)
        else:  # stay a tenth of the bracket (lo, hi) from either end; NaN at hi bisects
            t_c = _cubic_minimizer(*lo, *hi)
            margin = 0.1 * (hi[0] - lo[0])
            t = (lo[0] + hi[0]) / 2 if math.isnan(t_c) else min(max(t_c, lo[0] + margin), hi[0] - margin)
    return None


def _two_loop(pairs, gamma: float, g: np.ndarray) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of the correction pairs (s, y,
    1 / s.y), oldest first, started from gamma I: the two-loop recursion of
    Liu & Nocedal (1989)."""
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    q *= gamma
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q


def _lbfgs(x):
    """Minimize a function from x by limited-memory BFGS with the last
    _LBFGS_MEMORY correction pairs, scaled by gamma = s.y / y.y of the newest,
    and a weak Wolfe line search from the unit step, or from a step of unit
    length along -g while the memory is empty. A failed line search clears the
    memory; one with an empty memory ends the search unconverged.

    A generator: it yields each point to evaluate and is sent the function's
    (value, gradient) there (`_lockstep` drives it); it returns (x, f,
    iterations, converged)."""
    ftol, gtol = _LBFGS_OPTIONS["ftol"], _LBFGS_OPTIONS["gtol"]
    f, g = yield x
    if np.max(np.abs(g)) <= gtol:
        return x, f, 0, True
    pairs = deque(maxlen=_LBFGS_MEMORY)
    iterations = 0
    while iterations < _LBFGS_MAX_ITERATIONS:
        d = _two_loop(pairs, gamma, g) if pairs else -g
        t = 1.0 if pairs else 1 / np.linalg.norm(g)
        slope = float(g @ d)
        step = None
        if slope < 0:
            if -t * slope <= ftol * max(abs(f), 1):
                return x, f, iterations, True  # the step's linear decrease is below ftol
            step = yield from _wolfe_step(x, f, slope, d, t)
        if step is None:
            if not pairs:
                return x, f, iterations, False
            pairs.clear()
            continue
        iterations += 1
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        sy, yy = float(s @ y), float(y @ y)
        if sy > np.finfo(float).eps * yy:  # else H would lose positive definiteness
            pairs.append((s, y, 1 / sy))
            gamma = sy / yy
        done = f - f_new <= ftol * max(abs(f), abs(f_new), 1) or np.max(np.abs(g_new)) <= gtol
        x, f, g = x_new, f_new, g_new
        if done:
            return x, f, iterations, True
    return x, f, iterations, False


def _lockstep(search, starts) -> list:
    """Results of the `_lbfgs` generators `starts`, run together. Each round
    values the pending point of every search that has not finished in one call
    of the stacked `search` and sends each search its own row, copied, so that
    no search keeps a round's whole stack alive. Every search keeps its own
    memory, line search and stops; only the calls are shared."""
    results = [None] * len(starts)
    pending = {i: next(start) for i, start in enumerate(starts)}
    while pending:
        values, grads = search(np.stack(list(pending.values())))
        for i, f, g in zip(list(pending), values.tolist(), grads):
            try:
                pending[i] = starts[i].send((f, g.copy()))
            except StopIteration as done:
                del pending[i]
                results[i] = done.value
    return results


def minimize_entropy(l: SpinLabel, objective, restarts: int = 16, seed: int = 0) -> OptimizationResult:
    """Multi-start L-BFGS minimization, with analytic gradients, of an entropy
    functional over pure states of spin l.

    `objective` is "wehrl", "angular", or ("projection", SpinLabel) with
    twice_j <= channels.MAX_PROJECTION_TWICE_J. Start i draws its point from
    SeedSequence(seed, spawn_key=(i,)), the i-th child that numpy's
    SeedSequence(seed).spawn gives, so a fixed (restarts, seed) pair is fully
    deterministic. The starts run in groups of at most STATE_CHUNK, each
    group's searches in lockstep (`_lockstep`): one stacked objective call per
    round values every pending point, so memory stays bounded at any number
    of restarts. The winner is the lowest value, ties broken by lowest restart
    index.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if l.twice_l > OPTIMIZER_MAX_TWICE_L:
        raise ValueError(f"optimizer guard: twice_l <= {OPTIMIZER_MAX_TWICE_L}")
    if isinstance(objective, tuple) and objective[1].twice_l > channels.MAX_PROJECTION_TWICE_J:
        raise ValueError(f"optimizer guard: twice_j <= {channels.MAX_PROJECTION_TWICE_J}")
    search = objective_fn(l, objective)
    d = l.dim
    best = None
    total_iters = 0
    any_converged = False
    for first in range(0, restarts, STATE_CHUNK):
        starts = [_lbfgs(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
                         .standard_normal(2 * d))
                  for i in range(first, min(first + STATE_CHUNK, restarts))]
        for x, value, iterations, converged in _lockstep(search, starts):
            total_iters += iterations
            any_converged = any_converged or converged
            if best is None or value < best[0]:
                best = (value, x[:d] + 1j * x[d:])
    psi = PureState(l, best[1], normalize=True)
    direction, fidelity = closest_coherent(psi)
    return OptimizationResult(psi, float(best[0]), total_iters, restarts,
                              any_converged, direction, fidelity)
