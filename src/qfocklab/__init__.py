"""Numerical laboratory for truncated q-deformed Fock spaces."""

from .errors import (
    BadExponent,
    ConfigError,
    EigenFailure,
    FiltrationViolation,
    LevelTooLarge,
    NotHermitianError,
    NotPositiveSemidefinite,
    OutputWriteError,
    ParamMismatch,
    QFockError,
    ShapeMismatch,
    TruncationLoss,
    UnknownRoute,
    WindowOverflow,
)
from .partitions import (
    CrossingCount,
    PairPartition,
    SegmentShape,
    crossing_number,
    enumerate_pair_partitions,
)
from .qfock import (
    FockOperator,
    FockParams,
    annihilation,
    basis_tensor,
    creation,
    pairing_norm,
    r_star,
    r_star3,
    symmetrizer,
)
from .wick import (
    Element,
    product_direct,
    product_partition,
    product_triple,
)
from .gradient import (
    GradientVector,
    gamma,
    gradient_map,
    level_norm,
    nabla_norm,
    nabla_pairing_value,
    psi_element,
    schatten_diagnostic,
    truncated_schatten_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
