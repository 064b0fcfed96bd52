"""Sphere quadrature: Gauss-Legendre in cos(theta) crossed with uniform phi.

The uniform phi rule integrates trigonometric polynomials exactly up to
harmonic order n_phi - 1; Gauss-Legendre with n_theta nodes is exact for
polynomials in u = cos(theta) up to degree 2*n_theta - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi

import numpy as np


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
    of node (i, k) is w_theta[i] * w_phi[k].
    """
    u, w = np.polynomial.legendre.leggauss(spec.n_theta)
    thetas = np.arccos(u)
    phis = 2 * pi * np.arange(spec.n_phi) / spec.n_phi
    return thetas, phis, w / 2, np.full(spec.n_phi, 1.0 / spec.n_phi)


@lru_cache(maxsize=64)
def sphere_points(spec: QuadratureSpec) -> np.ndarray:
    """Unit vectors of the product-grid nodes, shape (n_theta * n_phi, 3),
    theta-major like the flattened weights; cached, read-only."""
    thetas, phis, _, _ = sphere_nodes(spec)
    sin = np.sin(thetas)[:, None]
    points = np.stack(np.broadcast_arrays(sin * np.cos(phis), sin * np.sin(phis),
                                          np.cos(thetas)[:, None]), axis=-1).reshape(-1, 3)
    points.flags.writeable = False
    return points
