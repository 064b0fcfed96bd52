"""Majorization order on spectra and derivative-free entropy minimization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import channels, entropy
from .coherent import closest_coherent
from .su2 import PureState, SphereDirection, SpinLabel

#: Largest twice_l `minimize_entropy` accepts; the CLI checks it before sampling.
OPTIMIZER_MAX_TWICE_L = 8


def as_spectrum(values) -> np.ndarray:
    """Descending-sorted spectrum with sub-1e-12 negative noise clamped."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    if v.size and v[-1] < -1e-12:
        raise ValueError(f"spectrum entry {v[-1]} below the clamp window")
    return np.maximum(v, 0.0)


def _padded(a: np.ndarray, b: np.ndarray):
    n = max(len(a), len(b))
    return np.pad(a, (0, n - len(a))), np.pad(b, (0, n - len(b)))


def majorizes(a, b, eps: float = 1e-9) -> bool:
    """True iff every prefix sum of a dominates the one of b within eps.

    Requires equal traces within eps; shorter vectors are zero-padded.
    """
    a, b = _padded(as_spectrum(a), as_spectrum(b))
    if abs(a.sum() - b.sum()) > eps:
        raise ValueError(f"trace mismatch {abs(a.sum() - b.sum())} exceeds eps={eps}")
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - eps))


def worst_majorization_violation(a, b) -> float:
    """Largest amount by which a prefix sum of b exceeds the one of a."""
    a, b = _padded(as_spectrum(a), as_spectrum(b))
    return float(np.max(np.cumsum(b) - np.cumsum(a)))


def schur_concave_check(f, a, b, convex: bool = False, tol: float = 1e-9) -> bool:
    """Consistency check: majorizes(a, b) must imply sum f(a) <= sum f(b)
    for concave f (reversed for convex f)."""
    if not majorizes(a, b):
        raise ValueError("precondition failed: a does not majorize b")
    fa = float(sum(f(x) for x in as_spectrum(a)))
    fb = float(sum(f(x) for x in as_spectrum(b)))
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


def objective_fn(l: SpinLabel, objective):
    """Returns (search_fn, final_fn) mapping amplitude vectors to the entropy.

    The Wehrl search runs on the one grid after the adaptive quadrature's
    starting level; the final value is the exact pure-state one."""
    if objective == "wehrl":
        search_spec = entropy.starting_spec(l.twice_l).doubled()

        def search(psi):
            return entropy.wehrl_fixed(PureState(l, psi).density(), search_spec)

        def final(psi):
            return entropy.wehrl_pure(PureState(l, psi))

        return search, final
    if objective == "angular":
        def value(psi):
            g = channels.angular_gram(PureState(l, psi))
            return entropy.entropy_of_spectrum(entropy.clamped_spectrum(g))

        return value, value
    if isinstance(objective, tuple) and objective[0] == "projection":
        j = objective[1]

        def value(psi):
            return channels.projection_entropy_pure(PureState(l, psi), j)

        return value, value
    raise ValueError(f"unknown objective {objective!r}")


def minimize_entropy(l: SpinLabel, objective, restarts: int = 16, seed: int = 0) -> OptimizationResult:
    """Multi-start simplex minimization of an entropy functional over pure
    states of spin l.

    `objective` is "wehrl", "angular", or ("projection", SpinLabel). Restart
    seeds are spawned from the master seed via numpy's SeedSequence, so a
    fixed (restarts, seed) pair is fully deterministic. The winner is the
    lowest value, ties broken by lowest restart index.
    """
    if l.twice_l > OPTIMIZER_MAX_TWICE_L:
        raise ValueError(f"optimizer guard: twice_l <= {OPTIMIZER_MAX_TWICE_L}")
    search, final = objective_fn(l, objective)
    d = l.dim

    def from_params(x):
        v = x[:d] + 1j * x[d:]
        n = np.linalg.norm(v)
        return v / n if n > 1e-12 else None

    def cost(x):
        v = from_params(x)
        if v is None:
            return 1e6
        return search(v)

    n_starts = max(1, restarts)
    seeds = np.random.SeedSequence(seed).spawn(n_starts)
    best = None
    total_iters = 0
    any_converged = False
    for idx in range(n_starts):
        rng = np.random.default_rng(seeds[idx])
        x0 = rng.standard_normal(2 * d)
        res = minimize(cost, x0, method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000, "maxfev": 6000})
        total_iters += res.nit
        any_converged = any_converged or bool(res.success)
        v = from_params(res.x)
        if v is None:
            continue
        val = final(v)
        if best is None or val < best[0]:
            best = (val, v)
    psi = PureState(l, best[1], normalize=True)
    direction, fidelity = closest_coherent(psi)
    return OptimizationResult(psi, float(best[0]), total_iters, restarts,
                              any_converged, direction, fidelity)
