"""Training loop: estimate, ascend, project, log.

The sign convention throughout is fitness = -MSE with ascent updates, so
the literal update ``theta <- theta + eta * g`` minimizes the loss.

The configured estimator kind applies to the discrete (COND/OP) holes.
Continuous REAL holes always use the Fisher-preconditioned Gaussian
update: with the plain score at the default learning rate the mu-step
exceeds the curvature limit of the quadratic loss and training diverges,
while preconditioning scales the step by sigma^2 and stays stable.

:func:`train` runs a list of cells -- configs that differ only in
estimator kind, learning rate and seed -- in one loop over one joint
:class:`ParamState`: one estimate, one fitness evaluation and one step
per iteration for all of them.  The cells of one seed share its
``Generator``, whose draws are made once per iteration and read by each
of them as a cell trained alone reads its own, and every operation works
row by row, so each cell's log and parameters are those it would get
trained alone.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import estimator as est
# _check_finite is re-exported for bench/tracer.py, which hooks it here
from .distributions import (  # noqa: F401
    LOGITS, PROBS, DivergenceError, DrawPlan, ParamState, _check_finite,
)


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
    """The fitness transform ``name``, applied along the last axis: to a
    population's fitnesses, or to each row of a ``(cells, lam)`` array."""
    if name == "raw":
        return None
    if name == "baseline":
        return lambda f: f - est.mean(f, True)

    def standardize(f):
        # the steps of ``centered.std()``: the mean is taken again of the
        # centered values before squaring
        centered = f - est.mean(f, True)
        deviation = centered - est.mean(centered, True)
        scale = np.sqrt(est.mean(deviation * deviation, True))
        # a zero (or NaN) scale leaves the row centered: x / 1.0 == x
        scale[~(scale > 0.0)] = 1.0
        return centered / scale

    return standardize


@dataclass(slots=True)  # a batch keeps every cell's records
class LogRecord:
    iteration: int
    loss: float
    entropies: tuple  # nats, per discrete hole in its log's discrete_ids order
    decode_loss: float | None
    # never filled: bench/tracer.py reports a counter absent without it
    params: ParamState | None = None


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
            row += map(repr, rec.entropies)
            row.append("" if rec.decode_loss is None else repr(rec.decode_loss))
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def sgd_step(params_set, gradients, eta, hole_ids=None):
    """Ascent step on every hole, followed by each family's projection.

    The public edge of the step, which converts the convenience forms
    once: ``params_set`` is a :class:`ParamState` or a list of
    distributions and ``gradients`` has one array per hole, of that
    hole's parameter count (else ``ValueError``), or is one vector in the
    state's order (as :attr:`GradientEstimate.vector
    <disnes.estimator.GradientEstimate>`).  ``eta`` is one learning rate
    or one per vector position.  The step is :meth:`ParamState.stepped`,
    and :func:`_check_finite` checks it, so a divergent update raises
    :class:`DivergenceError` (a ``FloatingPointError``) naming its first
    hole out of bounds: the id from ``hole_ids``, else the position.
    """
    state = ParamState.of(params_set)
    return state.stepped(state.layout.vector_of(gradients), eta, hole_ids)


def greedy_decode(params_set):
    """Modal value per distribution (argmax category / Gaussian mean)."""
    return ParamState.of(params_set).greedy()


def initial_params(problem, config):
    mode = PROBS if config.estimator_kind == est.NATURAL else LOGITS
    return problem.params(categorical_mode=mode)


# the settings a batch of cells shares; the others are per cell
_SHARED = ("iterations", "population", "log_every", "fitness_transform")


class _Cell:
    """One config's training run inside a batch, drawing from ``rng``, the
    ``Generator`` of its seed."""

    def __init__(self, problem, config, rng):
        self.state = ParamState.of(initial_params(problem, config))
        self.learning_rate = config.learning_rate
        discrete = self.state.layout.discrete
        self.kinds = [config.estimator_kind if d else CONTINUOUS_KIND
                      for d in discrete]
        self.discrete = [h for h, d in enumerate(discrete) if d]
        self.rng = rng
        hole_ids = problem.hole_ids()
        self.log = TrainingLog([hole_ids[h] for h in self.discrete])


def train(problem, configs):
    """Train one cell per config in one batched loop; returns one
    ``(TrainingLog, final params)`` pair per config, in order.

    The configs may differ only in ``estimator_kind``, ``learning_rate``
    and ``seed`` (else ``ValueError``).  The per-iteration loss is the
    mean population MSE (negated mean fitness).  The greedy-decode MSE is
    logged additionally every ``log_every * 10`` iterations, for every
    cell in one fitness evaluation.  Records keep numbers only; the final
    params are a one-cell :class:`ParamState`.

    A cell whose step diverges leaves the batch at once, and so does
    every cell after it in the list: trained one after another, those
    would never have run.  The cells before it finish, and then its
    :class:`DivergenceError` is raised with their pairs as ``finished``.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("train needs at least one config")
    for name in _SHARED:
        if len({getattr(c, name) for c in configs}) > 1:
            raise ValueError(f"the cells of one batch must share {name}")
    shared = configs[0]
    fitness = problem.fitness
    hole_ids = problem.hole_ids()
    lam = shared.population
    # one Generator per seed: the cells of a seed read its stream once
    rngs = {seed: np.random.default_rng(seed)
            for seed in {c.seed for c in configs}}
    cells = [_Cell(problem, c, rngs[c.seed]) for c in configs]
    state = ParamState.joined([c.state for c in cells])
    draws, kinds, rates = _batch(cells, state.layout, lam)
    transform = _transform_for(shared.fitness_transform)
    failure = None
    for i in range(1, shared.iterations + 1):
        estimate = est.estimate_gradient(
            state, fitness, lam, draws, kinds, fitness_transform=transform)
        try:
            state = sgd_step(state, estimate.vector, rates, hole_ids)
        except DivergenceError as exc:
            failure = exc
            cells = cells[:exc.hole // len(hole_ids)]
            if not cells:
                break
            state = ParamState.joined(
                [exc.state.cell(k) for k in range(len(cells))])
            draws, kinds, rates = _batch(cells, state.layout, lam)
        if (i - 1) % shared.log_every == 0:
            decode = (i - 1) % (shared.log_every * 10) == 0
            fits = estimate.fitnesses.reshape(-1, shared.population)
            _log(cells, state, fits, i, fitness, hole_ids, decode)
    finished = [(c.log, state.cell(k)) for k, c in enumerate(cells)]
    if failure is not None:
        failure.finished = finished
        raise failure
    return finished


def _batch(cells, layout, lam):
    """What every iteration of ``cells``, joined in ``layout``, reuses: the
    plan of their draws, the split of their holes' estimator kinds and the
    learning rate of each vector position."""
    return (DrawPlan(layout, [c.rng for c in cells], lam),
            est.KindPlan(layout, [k for c in cells for k in c.kinds]),
            np.array([c.learning_rate for c in cells])[layout.cell_of])


def _log(cells, state, fits, iteration, fitness, hole_ids, decode):
    """One record of ``iteration`` for each cell's log; row ``k`` of
    ``fits`` is cell ``k``'s population.  On a decode iteration one
    fitness evaluation scores every cell's greedy assignment."""
    holes = len(hole_ids)
    means = est.mean(fits)
    entropies = state.entropies()
    if decode:
        greedy = np.array(state.greedy(), dtype=np.float64)
        decode_losses = -est.call_fitness(
            fitness, greedy.reshape(len(cells), holes).T,
            state.layout.discrete[:holes])
    for k, cell in enumerate(cells):
        cell_entropies = entropies[k * holes:(k + 1) * holes]
        cell.log.records.append(LogRecord(
            iteration=iteration,
            loss=-float(means[k]),
            entropies=tuple([cell_entropies[h] for h in cell.discrete]),
            decode_loss=float(decode_losses[k]) if decode else None,
        ))
