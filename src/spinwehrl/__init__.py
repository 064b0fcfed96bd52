"""Coherent-state entropies and covariant quantum channels on SU(2) and
symmetric SU(N) representations."""

from .su2 import (
    DensityMatrix,
    PureState,
    SphereDirection,
    SpinLabel,
    generators,
    random_density,
    random_pure,
    rotate,
)
from .coherent import (
    StellarRoots,
    closest_coherent,
    coherent_state,
    completeness_defect,
    husimi,
    overlap_sq,
    state_from_roots,
    stellar_roots,
)
from .quadrature import QuadratureSpec
from .entropy import (
    ChordalData,
    povm_entropy,
    renyi_wehrl_moment,
    renyi_wehrl_projector,
    von_neumann,
    wehrl,
    wehrl_closed,
    wehrl_pure,
    wehrl_pure_batch,
)
from .channels import (
    ChannelOutput,
    angular_channel,
    angular_gram,
    channel_covariance_defect,
    projection_channel,
    projection_dual_gram,
    projection_entropy,
    projection_entropy_batch,
    projection_entropy_pure,
    projection_kraus,
    projection_shift,
)
from .fock import (
    SymmetricSpace,
    cloning_channel,
    coherent_condensate,
    decompose_measure_prepare,
    measure_prepare_channel,
    reduced_density,
    sun_coherent_majorization_test,
)
from .majorize import (
    OptimizationResult,
    majorizes,
    minimize_entropy,
    schur_concave_check,
)

__version__ = "0.1.0"
