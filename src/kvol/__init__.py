"""Exact KVol computations on regular n-gon translation surfaces.

The package builds the regular n-gon surface X_n (n even) and its staircase
model S_n with exact coordinates in Q(2*cos(pi/n)), enumerates saddle
connections, computes algebraic intersection numbers, and evaluates the
intersection-to-length ratio functional KVol both by brute force and through
its closed hyperbolic-distance formula on the Teichmueller disk.
"""

from .field import (
    ComputationLimitError,
    CycloReal,
    field_degree,
    fmt_float,
    minimal_polynomial,
    sqrt_in_field,
    trig_value,
)
from .hyperbolic import (
    Geodesic,
    angle_sine,
    apply_word,
    dist_points,
    dist_to_Gmax,
    dist_to_Gmax_batch,
    geodesic_of_directions,
    in_fundamental_domain,
    induced_action,
    moebius,
    nearest_gmax_geodesic,
    point_of_surface,
    reduce_to_fundamental_domain,
    word_matrix,
)
from .intersect import ClosedCurve, IntersectionForm, homology_class, intersection_form
from .plane import Mat2
from .ratios import (
    BoundReport,
    ConjectureReport,
    DirectionPairReport,
    K_of_directions,
    KvolReport,
    ParallelReport,
    UnrealizedDirectionError,
    UnsupportedCaseError,
    bound_4m2,
    check_parallel_criterion,
    closed_atoms,
    explore_conjecture,
    k0_constant,
    kvol_bruteforce,
    kvol_closed_formula,
    length_unit,
    verify_ngon_bound,
)
from .saddle import SaddleConnection, edge_connection, enumerate_saddle_connections
from .surface import (
    TranslationSurface,
    build_ngon,
    build_staircase,
    conversion_matrix,
    cylinder_decomposition,
    direction_vector,
    staircase_lengths,
    veech_generators,
)

__all__ = [
    "BoundReport",
    "ClosedCurve",
    "ComputationLimitError",
    "ConjectureReport",
    "CycloReal",
    "DirectionPairReport",
    "Geodesic",
    "IntersectionForm",
    "K_of_directions",
    "KvolReport",
    "Mat2",
    "ParallelReport",
    "SaddleConnection",
    "TranslationSurface",
    "UnrealizedDirectionError",
    "UnsupportedCaseError",
    "angle_sine",
    "apply_word",
    "bound_4m2",
    "build_ngon",
    "build_staircase",
    "check_parallel_criterion",
    "closed_atoms",
    "conversion_matrix",
    "cylinder_decomposition",
    "direction_vector",
    "dist_points",
    "dist_to_Gmax",
    "dist_to_Gmax_batch",
    "edge_connection",
    "enumerate_saddle_connections",
    "explore_conjecture",
    "field_degree",
    "fmt_float",
    "geodesic_of_directions",
    "homology_class",
    "in_fundamental_domain",
    "induced_action",
    "intersection_form",
    "k0_constant",
    "kvol_bruteforce",
    "kvol_closed_formula",
    "length_unit",
    "minimal_polynomial",
    "moebius",
    "nearest_gmax_geodesic",
    "point_of_surface",
    "reduce_to_fundamental_domain",
    "sqrt_in_field",
    "staircase_lengths",
    "trig_value",
    "veech_generators",
    "verify_ngon_bound",
    "word_matrix",
]

__version__ = "0.1.0"
