"""Exact Euler characteristics and perimeters of digitized planar sets.

The package digitizes regular closed sets on square lattices, computes
their Euler characteristic by three routes (local 2x2 window counts,
vertex/edge/face counts, component counting), estimates directional
and Euclidean perimeters from variogram asymptotics, bounds the component
miscount of a coarse digitization by entanglement pair detection, and
evaluates mean Euler characteristics of shot-noise level sets both in
closed form and by exact-geometry Monte Carlo.
"""

from .errors import (
    ConfigInvalid,
    CornerClash,
    DegenerateArrangement,
    EulergramError,
    InvalidSpec,
    MarginViolation,
    MeshMismatch,
    NonLatticeShift,
    NotAdmissible,
    RadiusTooSmall,
    UnboundedGrain,
    UnsupportedMarkLaw,
)
from .lattice import (
    BitGrid,
    IndicatorSet,
    Lattice,
    digitize,
    grid_volume,
    lattice_covering,
    read_pgm,
    write_pgm,
)
from .topology import (
    ComponentLabeling,
    ConfigCounts,
    chi_local,
    chi_vef,
    config_counts,
    label_components,
)
from .variogram import (
    PerimeterEstimate,
    ShiftSpec,
    chi_bicovariogram,
    chi_bicovariogram_discrete,
    continuous_polyvariogram,
    directional_perimeters,
    discrete_polyvariogram,
    estimate_perimeter,
    perimeter_axis_sum,
    perimeter_variational,
)
from .shapes import (
    PolyRectangle,
    corner_points,
    make_shape,
    morph,
    polyrect_features,
)
from .entanglement import (
    BoundReport,
    detect_boundary_pairs,
    detect_interior_pairs,
    verify_bounds,
)
from .randomsets import (
    AtomicMarks,
    Exponential,
    GrainMixture,
    Realization,
    RectFamily,
    ShotNoiseModel,
    Uniform,
    estimate_stationary_densities,
    level_set_features_exact,
    mc_mean_chi,
    mean_chi_closed_form,
    sample_realization,
    stationary_density_closed_form,
)

__version__ = "0.1.0"
