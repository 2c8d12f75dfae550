"""sparsecox: scalable sparse Cox regression on column-sparse survival data.

The estimator is a broken-adaptive-ridge (BAR) fit: an initial ridge
solution, solved by truncated Newton on whole-vector score and
Hessian-vector kernels, refined by iteratively reweighted L2-penalized
partial-likelihood optimization, solved with cyclic coordinate descent over
sparse columns.
Fixing the reweighting strength at ln(n) or ln(#events) makes the limit a
local BIC / censored-BIC optimizer, so no tuning search is needed.
"""

__version__ = "0.1.0"

from .data import (
    SparseColumnMatrix,
    SurvivalDataset,
    load_dataset,
    save_dataset,
    standardize,
    to_original_scale,
)
from .likelihood import LinearPredictorState
from .solver import SolverResult, ccd_minimize
from .bar import (
    BarConfig,
    BarFit,
    PathResult,
    fit_bar,
    fit_ridge,
    grouping_bound_check,
    information_criteria,
    path_over,
)
from .screening import ScreenResult, sjs_coxbar, sjs_screen
from .sim import (
    BenchmarkReport,
    MethodConfig,
    SelectionMetrics,
    SimScenario,
    run_benchmark,
    score,
    simulate,
)

__all__ = [
    "SparseColumnMatrix", "SurvivalDataset", "load_dataset", "save_dataset",
    "standardize", "to_original_scale",
    "LinearPredictorState",
    "SolverResult", "ccd_minimize",
    "BarConfig", "BarFit", "PathResult", "fit_ridge", "fit_bar",
    "information_criteria", "path_over", "grouping_bound_check",
    "ScreenResult", "sjs_screen", "sjs_coxbar",
    "SimScenario", "SelectionMetrics", "MethodConfig", "BenchmarkReport",
    "simulate", "score", "run_benchmark",
]
