"""kernel-budget: a query-metered kernel-method laboratory.

Kernel values are only reachable through a counting (optionally budgeted)
Gram oracle. On top of it: seeded hard-instance generators with hidden
ground truth, exact kernel ridge regression with its effective dimension
and closed-form hard-instance optimum, kernel k-means cost calculus with
lower-bound formulas and neighbor-sampling label recovery, and a
query-efficient clustering pipeline for Gaussian mixtures.
"""

__version__ = "0.1.0"

from .errors import (BoundRangeError, BudgetExhaustedError,
                     ContractViolationError, DegenerateInstanceError,
                     DegenerateRowError, DegenerateSketchError,
                     EstimationFailureError, GenerationFailureError,
                     NumericalDegeneracyError, PipelineStageError)
from .instances import (CLASS_S1, CLASS_S2, KkmcInstance, KrrInstance,
                        MogInstance, RankInstance, gen_kkmc, gen_krr,
                        gen_mog, gen_rank, make_balanced_kkmc)
from .kkmc import (Clustering, CostBreakdown, block_clustering, cost_explicit,
                   cost_kernel, kappa, large_cluster_bound,
                   multi_cluster_lower_bound, rank_cost_gap, recover_labels,
                   single_block_cost, small_cluster_lower_bound)
from .krr import classify_rows, d_eff, hard_instance_optimum, solve_exact
from .mog import (MogResult, SketchOperator, bootstrap_extract, build_sketch,
                  cluster_mog, estimate_means, separation_thresholds,
                  sketch_apply_many, sketched_assign)
from .oracle import MeteredGram, QueryLedger, QueryReport

__all__ = [
    "__version__",
    # oracle
    "MeteredGram", "QueryLedger", "QueryReport",
    # instances
    "CLASS_S1", "CLASS_S2", "KrrInstance", "RankInstance", "KkmcInstance",
    "MogInstance", "gen_krr", "gen_rank", "gen_kkmc", "gen_mog",
    "make_balanced_kkmc",
    # krr
    "solve_exact", "d_eff", "hard_instance_optimum", "classify_rows",
    # kkmc
    "Clustering", "CostBreakdown", "cost_kernel", "cost_explicit",
    "block_clustering", "kappa", "small_cluster_lower_bound",
    "multi_cluster_lower_bound", "large_cluster_bound", "recover_labels",
    "rank_cost_gap", "single_block_cost",
    # mog
    "SketchOperator", "MogResult", "bootstrap_extract", "estimate_means",
    "build_sketch", "sketch_apply_many", "sketched_assign", "cluster_mog",
    "separation_thresholds",
    # errors
    "ContractViolationError", "BudgetExhaustedError", "GenerationFailureError",
    "BoundRangeError", "DegenerateInstanceError", "NumericalDegeneracyError",
    "EstimationFailureError", "DegenerateRowError", "DegenerateSketchError",
    "PipelineStageError",
]
