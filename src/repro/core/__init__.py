"""Core library: the paper's cost model, branch-and-bound optimizer and baselines."""

from repro.core.beam_search import BeamSearchOptimizer, beam_search
from repro.core.bounds import ResidualBound, epsilon_bar, initial_upper_bound, max_residual_cost
from repro.core.branch_and_bound import (
    BranchAndBoundOptimizer,
    BranchAndBoundOptions,
    SuccessorOrder,
    branch_and_bound,
)
from repro.core.bottleneck_tsp import (
    BottleneckPathResult,
    BottleneckPathSolver,
    bottleneck_path,
    distance_matrix_from_problem,
    is_bottleneck_tsp_instance,
    problem_from_distance_matrix,
)
from repro.core.cost_model import (
    CommunicationCostMatrix,
    StageCost,
    bottleneck_cost,
    bottleneck_stage,
    prefix_products,
    stage_costs,
)
from repro.core.dynamic_programming import DynamicProgrammingOptimizer, dynamic_programming
from repro.core.evaluation import NeighborhoodEvaluator, PlanEvaluator, PrefixState
from repro.core.exhaustive import ExhaustiveOptimizer, exhaustive_search
from repro.core.greedy import GreedyOptimizer, GreedyStrategy, greedy, random_plan
from repro.core.local_search import (
    HillClimbingOptimizer,
    SimulatedAnnealingOptimizer,
    SimulatedAnnealingOptions,
    hill_climbing,
    simulated_annealing,
)
from repro.core.optimizer import ALGORITHMS, available_algorithms, compare, optimize
from repro.core.plan import Plan
from repro.core.precedence import PrecedenceGraph
from repro.core.problem import OrderingProblem
from repro.core.result import OptimizationResult, SearchStatistics
from repro.core.service import Service, ServiceRegistry
from repro.core.srivastava import SrivastavaOptimizer, srivastava
from repro.core.vector import (
    BatchEvaluator,
    batch_evaluator,
    default_kernel,
    evaluation_kernel,
    numpy_available,
    resolve_kernel,
    set_default_kernel,
)

__all__ = [
    "ALGORITHMS",
    "BatchEvaluator",
    "BeamSearchOptimizer",
    "BottleneckPathResult",
    "BottleneckPathSolver",
    "BranchAndBoundOptimizer",
    "BranchAndBoundOptions",
    "CommunicationCostMatrix",
    "DynamicProgrammingOptimizer",
    "ExhaustiveOptimizer",
    "GreedyOptimizer",
    "GreedyStrategy",
    "HillClimbingOptimizer",
    "NeighborhoodEvaluator",
    "OptimizationResult",
    "OrderingProblem",
    "Plan",
    "PlanEvaluator",
    "PrecedenceGraph",
    "PrefixState",
    "ResidualBound",
    "SearchStatistics",
    "Service",
    "ServiceRegistry",
    "SimulatedAnnealingOptimizer",
    "SimulatedAnnealingOptions",
    "SrivastavaOptimizer",
    "StageCost",
    "SuccessorOrder",
    "available_algorithms",
    "batch_evaluator",
    "beam_search",
    "bottleneck_cost",
    "bottleneck_path",
    "bottleneck_stage",
    "branch_and_bound",
    "compare",
    "default_kernel",
    "distance_matrix_from_problem",
    "dynamic_programming",
    "epsilon_bar",
    "evaluation_kernel",
    "exhaustive_search",
    "greedy",
    "hill_climbing",
    "initial_upper_bound",
    "is_bottleneck_tsp_instance",
    "max_residual_cost",
    "numpy_available",
    "optimize",
    "prefix_products",
    "problem_from_distance_matrix",
    "random_plan",
    "resolve_kernel",
    "set_default_kernel",
    "simulated_annealing",
    "srivastava",
    "stage_costs",
]
