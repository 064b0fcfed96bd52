"""Majorization order on spectra and gradient-based entropy minimization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import channels, entropy
from .coherent import closest_coherent
from .su2 import PureState, SphereDirection, SpinLabel

#: Largest twice_l `minimize_entropy` accepts; the CLI checks it before sampling.
OPTIMIZER_MAX_TWICE_L = 16
#: Tighter than scipy's defaults (ftol 2.2e-9, gtol 1e-5), whose single starts
#: ended up to 2.3e-7 above the coherent minimum at twice_l = 8; these reach
#: 3.5e-13 for about 40% more iterations.
_LBFGS_OPTIONS = {"ftol": 1e-13, "gtol": 1e-9}


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


# The search functions contract with einsum, not matmul: numpy and scipy each
# carry an OpenBLAS thread pool, and waking numpy's between L-BFGS-B steps made
# a minimization 5-10x slower on a 2-CPU machine.


def _real_gradient(g: np.ndarray) -> np.ndarray:
    """Gradient in x = (Re v, Im v) of a real function with dS/dv* = g."""
    return 2 * np.concatenate([g.real, g.imag])


def _gram_search(l: SpinLabel, factor):
    """Search function of the entropy of G = A(v)^dag A(v) / |v|^2 for a factor A
    linear in v; the gradient is Hellmann-Feynman through one eigh."""
    d = l.dim
    basis = [PureState(l, e) for e in np.eye(d)]
    support = np.logical_or.reduce([factor(e) != 0 for e in basis])
    B = np.stack([factor(e)[support] for e in basis])  # A(e_i) on the joint support

    def search(x):
        v = x[:d] + 1j * x[d:]
        n = np.vdot(v, v).real
        A = np.zeros(support.shape, dtype=complex)
        A[support] = np.einsum("i,ik->k", v, B)
        lam, U = np.linalg.eigh(A.conj().T @ A / n)
        # the one clamp rule, back in eigh's ascending order to stay paired with U
        lam = entropy.clamp_eigenvalues(lam)[::-1]
        # M = U diag(dlam) U^dag; the floor under the logarithm only touches
        # terms that vanish with their eigenvalue, as x ln x -> 0
        dlam = 1 + np.log(np.maximum(lam, np.finfo(float).tiny))
        AM = A @ ((U * dlam) @ U.conj().T)
        adjoint = np.einsum("ik,k->i", B, AM[support].conj()).conj()  # A^*(A M)
        grad = -(adjoint - v * np.sum(lam * dlam)) / n
        return entropy.entropy_of_spectrum(lam), _real_gradient(grad)

    return search


def objective_fn(l: SpinLabel, objective):
    """The function x -> (entropy, gradient in x) of an entropy objective over
    pure states, where x holds the amplitudes x[:d] + i x[d:] of any norm.

    The value is the one the library reports for the normalized state: the
    exact pure-state Wehrl entropy, or the entropy of the Gram spectrum."""
    d = l.dim
    if objective == "wehrl":
        def search(x):
            value, grad = entropy.wehrl_pure_gradient(l, x[:d] + 1j * x[d:])
            return value, _real_gradient(grad)

        return search
    if objective == "angular":
        return _gram_search(l, channels.angular_factor)
    if isinstance(objective, tuple) and objective[0] == "projection":
        j = objective[1]
        return _gram_search(l, lambda psi: channels.projection_dual_factor(psi, j))
    raise ValueError(f"unknown objective {objective!r}")


def minimize_entropy(l: SpinLabel, objective, restarts: int = 16, seed: int = 0) -> OptimizationResult:
    """Multi-start L-BFGS minimization, with analytic gradients, of an entropy
    functional over pure states of spin l.

    `objective` is "wehrl", "angular", or ("projection", SpinLabel) with
    twice_j <= channels.MAX_PROJECTION_TWICE_J. Restart seeds are spawned
    from the master seed via numpy's SeedSequence, so a fixed (restarts, seed)
    pair is fully deterministic. The winner is the lowest value, ties broken
    by lowest restart index.
    """
    if l.twice_l > OPTIMIZER_MAX_TWICE_L:
        raise ValueError(f"optimizer guard: twice_l <= {OPTIMIZER_MAX_TWICE_L}")
    if isinstance(objective, tuple) and objective[1].twice_l > channels.MAX_PROJECTION_TWICE_J:
        raise ValueError(f"optimizer guard: twice_j <= {channels.MAX_PROJECTION_TWICE_J}")
    search = objective_fn(l, objective)
    d = l.dim
    best = None
    total_iters = 0
    any_converged = False
    for start in np.random.SeedSequence(seed).spawn(max(1, restarts)):
        x0 = np.random.default_rng(start).standard_normal(2 * d)
        res = minimize(search, x0, jac=True, method="L-BFGS-B", options=_LBFGS_OPTIONS)
        total_iters += res.nit
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best[0]:
            best = (res.fun, res.x[:d] + 1j * res.x[d:])
    psi = PureState(l, best[1], normalize=True)
    direction, fidelity = closest_coherent(psi)
    return OptimizationResult(psi, float(best[0]), total_iters, restarts,
                              any_converged, direction, fidelity)
