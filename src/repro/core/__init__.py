"""MaxEnt core: the compressed polynomial, solvers, and inference."""

from repro.core.arena import QueryEstimate, round_half_up
from repro.core.dual import dual_gradient, dual_value, solve_dual_scipy
from repro.core.hierarchy import HierarchicalSummary
from repro.core.inference import InferenceEngine
from repro.core.naive import NaivePolynomial
from repro.core.sharding import (
    Partition,
    ShardedSummary,
    load_model,
    partition_relation,
)
from repro.core.polynomial import (
    CompressedPolynomial,
    EvaluationParts,
    initial_parameters,
    masks_from_conjunction,
    product_excluding,
)
from repro.core.solver import MirrorDescentSolver, SolverReport, solve_statistics
from repro.core.summary import EntropySummary
from repro.core.terms import Component, build_components
from repro.core.variables import ModelParameters
from repro.core.worlds import (
    empirical_query_distribution,
    sample_world,
    sample_world_sequential,
)

__all__ = [
    "Component",
    "HierarchicalSummary",
    "CompressedPolynomial",
    "EntropySummary",
    "EvaluationParts",
    "InferenceEngine",
    "MirrorDescentSolver",
    "ModelParameters",
    "NaivePolynomial",
    "Partition",
    "QueryEstimate",
    "ShardedSummary",
    "SolverReport",
    "build_components",
    "dual_gradient",
    "empirical_query_distribution",
    "load_model",
    "partition_relation",
    "sample_world",
    "sample_world_sequential",
    "dual_value",
    "initial_parameters",
    "masks_from_conjunction",
    "product_excluding",
    "round_half_up",
    "solve_dual_scipy",
    "solve_statistics",
]
