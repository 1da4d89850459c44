"""Training loop: estimate, ascend, project, log.

The sign convention throughout is fitness = -MSE with ascent updates, so
the literal update ``theta <- theta + eta * g`` minimizes the loss.

The configured estimator kind applies to the discrete (COND/OP) holes.
Continuous REAL holes always use the Fisher-preconditioned Gaussian
update: with the plain score at the default learning rate the mu-step
exceeds the curvature limit of the quadratic loss and training diverges,
while preconditioning scales the step by sigma^2 and stays stable.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import estimator as est
from .distributions import LOGITS, PROBS, ParamState, is_discrete


# estimator kind for Gaussian holes: standard continuous-ES variance
# adaptation
CONTINUOUS_KIND = est.NATURAL


@dataclass
class TrainConfig:
    iterations: int = 10000
    learning_rate: float = 0.1
    population: int = 50
    estimator_kind: str = est.NATURAL
    seed: int = 1
    log_every: int = 10
    # population fitness transform used for the update weights:
    # raw | baseline (mean-centered) | standardize (centered, unit variance)
    fitness_transform: str = "standardize"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (math.isfinite(self.learning_rate)
                and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be a finite number > 0")
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.fitness_transform not in ("raw", "baseline", "standardize"):
            raise ValueError(
                f"unknown fitness_transform {self.fitness_transform!r}")


def _transform_for(name):
    if name == "raw":
        return None
    if name == "baseline":
        return lambda f: f - est.mean(f)

    def standardize(f):
        # the steps of ``centered.std()``: the mean is taken again of the
        # centered values before squaring
        centered = f - est.mean(f)
        deviation = centered - est.mean(centered)
        scale = np.sqrt(est.mean(deviation * deviation))
        return centered / scale if scale > 0.0 else centered

    return standardize


@dataclass
class LogRecord:
    iteration: int
    loss: float
    entropies: dict  # discrete hole id -> entropy in nats
    decode_loss: float | None
    params: list     # snapshot of the params-set after the update


@dataclass
class TrainingLog:
    discrete_ids: list
    records: list = field(default_factory=list)

    def to_csv(self):
        """CSV text: iter,loss,entropy_<id>...,decode_loss."""
        buf = io.StringIO()
        cols = ["iter", "loss"] + [f"entropy_{h}" for h in self.discrete_ids]
        cols.append("decode_loss")
        buf.write(",".join(cols) + "\n")
        for rec in self.records:
            row = [str(rec.iteration), repr(rec.loss)]
            row += [repr(rec.entropies[h]) for h in self.discrete_ids]
            row.append("" if rec.decode_loss is None else repr(rec.decode_loss))
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def sgd_step(params_set, gradients, eta, hole_ids=None):
    """Ascent step on every hole, followed by each family's projection.

    ``params_set`` is a :class:`ParamState` or a list of distributions and
    ``gradients`` has one array per hole, of that hole's parameter count
    (else ``ValueError``).  The step is one NumPy operation on the flat
    vector plus one projection per group, and the result is a
    :class:`ParamState`.  :func:`_check_finite` then checks the stepped
    vector, so a divergent update raises ``FloatingPointError`` naming its
    first non-finite hole: the id from ``hole_ids``, else the position.
    """
    stepped = ParamState.of(params_set).stepped(gradients, eta)
    _check_finite(stepped, hole_ids)
    return stepped


def greedy_decode(params_set):
    """Modal value per distribution (argmax category / Gaussian mean)."""
    return ParamState.of(params_set).greedy()


def initial_params(problem, config):
    mode = PROBS if config.estimator_kind == est.NATURAL else LOGITS
    return problem.params(categorical_mode=mode)


def _kinds_for(params_set, config):
    return tuple(
        config.estimator_kind if is_discrete(p) else CONTINUOUS_KIND
        for p in params_set
    )


def train(problem, config):
    """Run the full loop; returns ``(TrainingLog, final params-set)``.

    The per-iteration loss is the mean population MSE (negated mean
    fitness).  The greedy-decode MSE is logged additionally every
    ``log_every * 10`` iterations.
    """
    params = initial_params(problem, config)
    kinds = _kinds_for(params, config)
    fitness = problem.fitness
    hole_ids = problem.hole_ids()
    discrete = [h for h, p in enumerate(params) if is_discrete(p)]
    rng = np.random.default_rng(config.seed)
    log = TrainingLog([hole_ids[h] for h in discrete])

    state = ParamState.of(params)
    transform = _transform_for(config.fitness_transform)
    for i in range(1, config.iterations + 1):
        estimate = est.estimate_gradient(
            state, fitness, config.population, rng, kinds,
            fitness_transform=transform)
        state = sgd_step(state, estimate.gradients, config.learning_rate,
                         hole_ids)
        if (i - 1) % config.log_every == 0:
            decode_loss = None
            if (i - 1) % (config.log_every * 10) == 0:
                decode_loss = -float(fitness(tuple(greedy_decode(state))))
            entropies = state.entropies()
            log.records.append(LogRecord(
                iteration=i,
                loss=-estimate.mean_fitness,
                entropies={hole_ids[h]: entropies[h] for h in discrete},
                decode_loss=decode_loss,
                params=state.params(),
            ))
    return log, state.params()


def _check_finite(state, hole_ids=None):
    """Raise ``FloatingPointError`` naming the first hole, in hole order,
    whose parameters in ``state`` are not all finite."""
    finite = np.isfinite(state.vector)
    if not finite.all():
        hole = int(state.layout.hole_of[~finite].min())
        name = hole_ids[hole] if hole_ids else hole
        raise FloatingPointError(
            f"non-finite parameters for hole {name!r} after update: "
            f"{state[hole]}")
