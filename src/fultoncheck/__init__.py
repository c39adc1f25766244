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

import importlib

__version__ = "0.1.0"

# The public names of each module.  A name is imported on first access
# (PEP 562), so `import fultoncheck` loads no submodule and a command loads
# only the layers it runs.
_EXPORTS = {
    "cohomology": ("class_product", "intersection_number", "nonvanishing_positions",
                   "problem_class", "schubert_class"),
    "field": ("DEFAULT_PRIME", "Field", "SolverFault", "field_from_name"),
    "filtration": ("FiltrationError", "FiltrationStep", "FiltrationTrace", "TraceAudit",
                   "run_filtration", "run_filtration_random", "trace_to_dict", "verify_trace"),
    "homspace": ("GenericDimResult", "GenericityError", "HomAuditError", "HomSystem",
                 "build_system", "generic_hom_dim", "random_flag_tuples", "sample_generic",
                 "stabilized_min"),
    "linalg": ("Flag", "LinAlgError", "Matrix", "SamplingError"),
    "littlewood": ("lr_coefficient", "lr_coefficient_pieri"),
    "partitions": ("IndexSet", "Partition", "SchubertProblem", "all_index_sets",
                   "partition_to_index", "partitions_with"),
    "positions": ("dim_triple", "falcon_compose", "rappel_delta"),
    "semistability": ("ParabolicWeights", "SlopeViolation", "clinchers", "find_violations",
                      "total_slope"),
    "sweeps": ("SweepConfig", "cmd_crosscheck", "cmd_fulton", "cmd_saturation",
               "cmd_semistable", "derive_seed", "enumerate_problems", "enumerate_triples",
               "rng_for"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
