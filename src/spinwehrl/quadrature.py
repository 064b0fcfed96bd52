"""Sphere quadrature: Gauss-Legendre in cos(theta) crossed with uniform phi.

The uniform phi rule integrates trigonometric polynomials exactly up to
harmonic order n_phi - 1; Gauss-Legendre with n_theta nodes is exact for
polynomials in u = cos(theta) up to degree 2*n_theta - 1. `exact_grid` is the
one rule for the grid on which the package's polynomial integrands are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np
from scipy.special import roots_legendre

from .errors import QuadratureOrderError


@dataclass(frozen=True)
class QuadratureSpec:
    n_theta: int
    n_phi: int
    tol: float = 1e-9

    def __post_init__(self):
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("node counts must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(2 * self.n_theta, 2 * self.n_phi, self.tol)


def sphere_nodes(spec: QuadratureSpec):
    """Nodes and weights for \\int dOmega/(4 pi); weights sum to 1.

    Returns (thetas, phis, w_theta, w_phi) on the product grid; the full weight
    of node (i, k) is w_theta[i] * w_phi[k]. The Gauss-Legendre rule takes
    O(n_theta) memory.
    """
    u, w = roots_legendre(spec.n_theta)
    thetas = np.arccos(u)
    phis = 2 * pi * np.arange(spec.n_phi) / spec.n_phi
    return thetas, phis, w / 2, np.full(spec.n_phi, 1.0 / spec.n_phi)


def exact_grid(twice_l: int, n: int = 1, spec: QuadratureSpec | None = None) -> QuadratureSpec:
    """`spec`, by default the (twice_l n + 1) x (2 twice_l n + 1) grid on which
    the integrands of spin twice_l/2 built from n Husimi functions are exact:
    the pure-state Wehrl integrands (n = 1, degree 4l) and the Renyi moment
    M_n. QuadratureOrderError when `spec` is coarser than that grid."""
    need = QuadratureSpec(twice_l * n + 1, 2 * twice_l * n + 1)
    spec = spec or need
    if spec.n_theta < need.n_theta or spec.n_phi < need.n_phi:
        raise QuadratureOrderError(f"need n_theta >= {need.n_theta} and n_phi >= {need.n_phi} for twice_l="
                                   f"{twice_l}, n={n}, got ({spec.n_theta}, {spec.n_phi})")
    return spec


def sphere_points(spec: QuadratureSpec) -> np.ndarray:
    """Unit vectors of the product-grid nodes, shape (n_theta * n_phi, 3),
    theta-major like the flattened weights."""
    thetas, phis, _, _ = sphere_nodes(spec)
    sin = np.sin(thetas)[:, None]
    return np.stack(np.broadcast_arrays(sin * np.cos(phis), sin * np.sin(phis),
                                        np.cos(thetas)[:, None]), axis=-1).reshape(-1, 3)
