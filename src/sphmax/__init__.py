"""Spherical means over fractal dilation sets.

Exact dilation-set combinatorics, singular-kernel quadrature for the
radial spherical mean, exact rational type-set polygons, and scaling
probes for the associated maximal operator.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateProbeError,
    DivergentNormError,
    DomainError,
    InsufficientDataError,
    InvalidScaleError,
    InvalidWindowError,
    ParameterError,
    PrecisionError,
    SingularityError,
    SphmaxError,
)
from .fractal_set import (
    DimensionReport,
    FractalSet,
    arithmetic_progression,
    binary_covering_number,
    covering_number,
    estimate_dimensions,
    finite_points,
    from_intervals,
    full_interval,
    geometric_sequence,
    local_covering_number,
    middle_cantor,
    neighborhood_measure,
    parse_set,
    power_sequence,
    restrict,
    separated_points,
    union_of,
)
from .norm_probe import (
    ProbeFamily,
    ProbeInstance,
    ProbeResult,
    ProbeRow,
    build_probe,
    endpoint_log_probe,
    lorentz_log_probe,
    run_probe,
)
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate
from .radial_operator import (
    DilationGrid,
    MaximalValue,
    RadialProfile,
    circular_components,
    decomposition_components,
    indicator,
    kernel,
    lp_norm,
    maximal_value,
    parse_profile,
    power_profile,
    profile_expression,
    spherical_mean,
)
from .type_set_geometry import (
    CharacteristicFlags,
    RegionPoint,
    TypeSetRegion,
    classify_point,
    membership,
    predicted_probe_exponents,
    radial_type_set,
    region,
    supporting_line_value,
    vertex,
)
