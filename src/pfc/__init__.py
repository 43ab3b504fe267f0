"""Progressive feedforward collapse: metrics, geodesic interpolation,
surrogate feature models, and a toy residual network."""

from .core import (
    ClassStats,
    DegenerateInputError,
    DivergenceError,
    FeatureSet,
    LayerStack,
    class_stats,
    load_featureset,
    save_featureset,
)
from .etf import build_etf, gram_target
from .geodesic import (
    InterpolationPath,
    MetricCurve,
    MonotonicityVerdict,
    interpolate,
    metric_curve,
    metric_values,
    monotonicity_report,
    relative_positions,
    uniform_grid,
)
from .metrics import (
    PfcReport,
    alignment,
    effective_depth,
    measure,
    nearest_class_means,
    pfc1,
    pfc2,
    pfc3,
)
from .surrogate import (
    SolveProblem,
    SolveResult,
    SweepRow,
    collapse_multilayer,
    objective,
    solve,
    sweep_lambda,
)
from .resnet import TrainConfig, TrainTrace, train
from .data import gen_gaussian_mixture, load_mnist_idx
from .harness import ExperimentConfig, resolve_config, run, spearman

__version__ = "0.1.0"

__all__ = [
    "ClassStats",
    "DegenerateInputError",
    "DivergenceError",
    "ExperimentConfig",
    "FeatureSet",
    "InterpolationPath",
    "LayerStack",
    "MetricCurve",
    "MonotonicityVerdict",
    "PfcReport",
    "SolveProblem",
    "SolveResult",
    "SweepRow",
    "TrainConfig",
    "TrainTrace",
    "alignment",
    "build_etf",
    "class_stats",
    "collapse_multilayer",
    "effective_depth",
    "gen_gaussian_mixture",
    "gram_target",
    "interpolate",
    "load_featureset",
    "load_mnist_idx",
    "measure",
    "metric_curve",
    "metric_values",
    "monotonicity_report",
    "nearest_class_means",
    "objective",
    "pfc1",
    "pfc2",
    "pfc3",
    "relative_positions",
    "resolve_config",
    "run",
    "save_featureset",
    "solve",
    "spearman",
    "sweep_lambda",
    "train",
    "uniform_grid",
]
