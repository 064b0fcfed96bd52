"""Exception types shared across the package."""


class QuadratureOrderError(ValueError):
    """Quadrature grid too coarse for the requested exactness degree."""


class ResourceGuardError(RuntimeError):
    """A desk-scale memory/size guard was exceeded."""


class ConvergenceError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance; carries
    the last successive difference (inf before two levels) and the last grid
    evaluated (None before one)."""

    def __init__(self, message: str, last_difference=None, last_spec=None):
        super().__init__(message)
        self.last_difference = last_difference
        self.last_spec = last_spec


class DecompositionError(RuntimeError):
    """Channel decomposition fit exceeded its residual threshold."""
