"""Evolution-strategy gradient estimation for discrete and continuous
search distributions, applied to filling holes in small program sketches."""

from .checks import verify
from .distributions import (
    BernoulliParams,
    CategoricalParams,
    GaussianParams,
    LOGITS,
    PROBS,
)
from .estimator import (
    GradientEstimate,
    NATURAL,
    SEARCH,
    VO,
    estimate_gradient,
    exact_gradient_oracle,
)
from .harness import (
    ABLATION_SKETCH,
    ABLATION_SPEC,
    MAIN_SKETCH,
    MAIN_SPEC,
    TRUE_PROGRAM,
    run_ablation,
    run_main,
)
from .optimizer import TrainConfig, TrainingLog, greedy_decode, sgd_step, train
from .sketch import (
    Specification,
    SketchProblem,
    eval_program,
    holes_to_distributions,
    parse,
    render,
)

__all__ = [
    "BernoulliParams", "CategoricalParams", "GaussianParams",
    "LOGITS", "PROBS",
    "GradientEstimate", "SEARCH", "NATURAL", "VO",
    "estimate_gradient", "exact_gradient_oracle",
    "TrainConfig", "TrainingLog", "greedy_decode", "sgd_step", "train",
    "Specification", "SketchProblem", "eval_program",
    "holes_to_distributions", "parse", "render",
    "MAIN_SKETCH", "MAIN_SPEC", "TRUE_PROGRAM",
    "ABLATION_SKETCH", "ABLATION_SPEC",
    "run_main", "run_ablation", "verify",
]
