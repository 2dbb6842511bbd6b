"""Attenuation tomography for a slab lit by boundary point sources.

Forward transport synthesis, boundary-data derivation, minimization of a
weighted least-squares objective over the log-radiance pair, coefficient
recovery, and empirical probes of the estimates the method leans on.
"""

from .boundary import (
    BoundaryDataSet,
    add_noise,
    derive_boundary_data,
    downsample_boundary,
    extract_boundary,
)
from .carleman import (
    carleman_sides,
    convexity_sweep,
    empirical_carleman_constant,
    gradient_check,
    sample_in_ball,
    sample_test_function,
)
from .config import RunConfig, config_hash, geometry_of, load_config
from .errors import NumericalError, RteTomoError, UsageError, VerificationError
from .forward import (
    KernelModel,
    SourceModel,
    solve_forward,
    solve_forward_direct,
    u0_field,
)
from .geometry import Geometry, GridSet, carleman_weight
from .inverse import CarlemanObjective, InversionState, PairField, minimize
from .phantom import Phantom, letter_mask, make_phantom, true_contrast
from .recovery import (
    Reconstruction,
    computed_contrast,
    recover_attenuation,
    score,
    support_centroid,
)
from .seeding import stream

__version__ = "0.1.0"

__all__ = [
    "BoundaryDataSet",
    "CarlemanObjective",
    "Geometry",
    "GridSet",
    "InversionState",
    "KernelModel",
    "NumericalError",
    "PairField",
    "Phantom",
    "Reconstruction",
    "RteTomoError",
    "RunConfig",
    "SourceModel",
    "UsageError",
    "VerificationError",
    "add_noise",
    "carleman_sides",
    "carleman_weight",
    "computed_contrast",
    "config_hash",
    "convexity_sweep",
    "derive_boundary_data",
    "downsample_boundary",
    "empirical_carleman_constant",
    "extract_boundary",
    "geometry_of",
    "gradient_check",
    "letter_mask",
    "load_config",
    "make_phantom",
    "minimize",
    "recover_attenuation",
    "sample_in_ball",
    "sample_test_function",
    "score",
    "solve_forward",
    "solve_forward_direct",
    "stream",
    "support_centroid",
    "true_contrast",
    "u0_field",
]
