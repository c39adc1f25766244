"""Exact Schubert calculus with generic-rank verification over finite fields.

The package computes Littlewood-Richardson coefficients and Grassmannian
intersection numbers exactly, realizes incidence conditions as linear
constraints on maps between generic flags over a prime field (or the
rationals), builds the kernel filtration whose terminal data gives an exact
correction term for the map-space dimension, and checks parabolic
semistability of the weights attached to a solvable problem.  Sweep commands
cross-validate the combinatorial and linear-algebra routes over exhaustive
instance families.
"""

from .cohomology import (
    class_product,
    intersection_number,
    nonvanishing_positions,
    problem_class,
    schubert_class,
)
from .field import (
    DEFAULT_PRIME,
    Field,
    field_from_name,
)
from .filtration import (
    FiltrationError,
    FiltrationStep,
    FiltrationTrace,
    TraceAudit,
    run_filtration,
    run_filtration_random,
    trace_to_dict,
    verify_trace,
)
from .homspace import (
    GenericDimResult,
    GenericityError,
    HomAuditError,
    HomSystem,
    build_system,
    generic_hom_dim,
    random_flag_tuples,
    sample_generic,
    stabilized_min,
)
from .linalg import (
    Flag,
    LinAlgError,
    Matrix,
    SamplingError,
)
from .littlewood import lr_coefficient, lr_coefficient_pieri
from .partitions import (
    IndexSet,
    Partition,
    SchubertProblem,
    all_index_sets,
    partition_to_index,
    partitions_with,
)
from .positions import (
    dim_triple,
    falcon_compose,
    rappel_delta,
)
from .semistability import (
    ParabolicWeights,
    SlopeViolation,
    clincher,
    clinchers,
    find_violations,
    slope,
    total_slope,
)
from .sweeps import (
    SweepConfig,
    cmd_crosscheck,
    cmd_fulton,
    cmd_saturation,
    cmd_semistable,
    derive_seed,
    enumerate_problems,
    enumerate_triples,
    rng_for,
)

__version__ = "0.1.0"

__all__ = [
    "class_product",
    "intersection_number",
    "nonvanishing_positions",
    "problem_class",
    "schubert_class",
    "DEFAULT_PRIME",
    "Field",
    "field_from_name",
    "FiltrationError",
    "FiltrationStep",
    "FiltrationTrace",
    "TraceAudit",
    "run_filtration",
    "run_filtration_random",
    "trace_to_dict",
    "verify_trace",
    "GenericDimResult",
    "GenericityError",
    "HomAuditError",
    "HomSystem",
    "build_system",
    "generic_hom_dim",
    "random_flag_tuples",
    "sample_generic",
    "stabilized_min",
    "Flag",
    "LinAlgError",
    "Matrix",
    "SamplingError",
    "lr_coefficient",
    "lr_coefficient_pieri",
    "IndexSet",
    "Partition",
    "SchubertProblem",
    "all_index_sets",
    "partition_to_index",
    "partitions_with",
    "dim_triple",
    "falcon_compose",
    "rappel_delta",
    "ParabolicWeights",
    "SlopeViolation",
    "clincher",
    "clinchers",
    "find_violations",
    "slope",
    "total_slope",
    "SweepConfig",
    "cmd_crosscheck",
    "cmd_fulton",
    "cmd_saturation",
    "cmd_semistable",
    "derive_seed",
    "enumerate_problems",
    "enumerate_triples",
    "rng_for",
    "__version__",
]
