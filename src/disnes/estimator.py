"""Monte Carlo gradient estimators over a population of joint draws.

One population of ``lam`` joint hole assignments is sampled across all
search distributions at once, as a float64 ``(holes, lam)`` matrix, and
scored by one ``fitness.population(draws)`` call that returns one fitness
per member (see :func:`call_fitness`); the per-distribution gradients are
read off the shared population.  Three weightings are available:

* ``SEARCH``  -- plain score weighting (the log-derivative estimator).
* ``NATURAL`` -- Fisher-preconditioned score weighting.
* ``VO``      -- probability-gradient weighting.

``exact_gradient_oracle`` enumerates the joint discrete support and
computes the infinite-population limit of each estimator; it exists so the
Monte Carlo paths can be tested against an independent computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import DrawPlan, ParamState

SEARCH = "search"
NATURAL = "natural"
VO = "vo"

KINDS = (SEARCH, NATURAL, VO)

# Joint supports larger than this refuse enumeration in the oracle.
MAX_ORACLE_SUPPORT = 10**6


@dataclass
class GradientEstimate:
    """Result of one population estimate.

    ``vector`` holds the gradient of every hole in the vector order of the
    state's ``layout``; ``gradients`` gives it as one array per
    distribution, aligned with the params-set order, as views of
    ``vector`` made on first use.  ``fitnesses`` holds every member's
    fitness, cell after cell for a state of several cells.
    ``degenerate`` counts the cells whose fitnesses were all equal after
    non-finite replacement (advisory only; their gradients are still
    returned), computed on first use.
    """

    vector: np.ndarray
    fitnesses: np.ndarray
    layout: object = field(repr=False)

    @cached_property
    def gradients(self):
        return self.layout.per_hole(self.vector)

    @cached_property
    def degenerate(self):
        rows = self.fitnesses.reshape(self.layout.cell_count, -1)
        return int(np.add.reduce(
            np.logical_and.reduce(rows == rows[:, :1], axis=1)))


def mean(values, keepdims=False):
    """``values.mean(axis=-1, keepdims=keepdims)``, bit for bit, without
    the Python layer of ``ndarray.mean``: a number for a 1-D array, one
    per row for a 2-D one."""
    return (np.add.reduce(values, axis=-1, keepdims=keepdims)
            / values.shape[-1])


def _resolve_kinds(kinds, n):
    if isinstance(kinds, str):
        kinds = (kinds,) * n
    kinds = tuple(kinds)
    if len(kinds) != n:
        raise ValueError(f"expected {n} estimator kinds, got {len(kinds)}")
    for k in kinds:
        if k not in KINDS:
            raise ValueError(f"unknown estimator kind {k!r}")
    return kinds


class KindPlan:
    """The estimator kinds of one layout's holes, split by group once, and
    the buffer the weighted sums go into.  Per group: the kind of its
    first row, each other kind it holds with that kind's rows as an
    ``np.intp`` array, and the group's ``(rows, 1, width)`` view of
    ``sums``, the weighted sums in the layout's vector order, which every
    estimate overwrites."""

    def __init__(self, layout, kinds):
        kinds = _resolve_kinds(kinds, layout.size)
        self.layout, self.groups = layout, []
        self.sums = np.empty(layout.hole_of.size)
        for group in layout.groups:
            first, *rest = group_kinds = [kinds[h] for h in group.holes]
            others = [(kind, np.array([r for r, k in enumerate(group_kinds)
                                       if k == kind], dtype=np.intp))
                      for kind in dict.fromkeys(rest) if kind != first]
            self.groups.append((first, others, self.sums[
                group.start:group.stop].reshape(-1, 1, group.width)))


def sample_population(state, plan):
    """Draw ``plan.lam`` joint samples of ``state`` through ``plan``, a
    :class:`DrawPlan` made for its layout: one ``(holes, lam)`` float64
    matrix in the state's group order (see :class:`ParamState`), so each
    group's rows are one slice of it.  The plan reads each cell's
    ``Generator`` in hole order, so identical rng states give identical
    populations whichever estimator kind is computed afterwards."""
    return plan.sample(state.blocks)


def call_fitness(fitness, draws):
    """The fitness of each column of ``draws``, a float64 ``(holes, n)``
    matrix with one row of values per hole (a COND/OP hole's values are
    whole-number category indices), as ``n`` float64s: one
    ``fitness.population(draws)`` call.  Every fitness call in the package
    is made here, and a result of any shape but ``(n,)`` raises
    ``ValueError``."""
    fits = np.asarray(fitness.population(draws), dtype=np.float64)
    if fits.shape != draws.shape[1:]:
        raise ValueError(f"fitness returned shape {fits.shape}, expected "
                         f"({draws.shape[1]},)")
    return fits


def evaluate_fitnesses(fitness, draws, lam, cells=1):
    """Evaluate the fitness of every population member.

    ``draws`` holds one row of values per hole, each of ``cells * lam``
    members, the populations of ``cells`` cells one after the other; they
    are scored by :func:`call_fitness`.  Non-finite fitnesses are replaced
    by the worst finite fitness of the member's cell minus 1 (or -1.0 if
    the cell's whole population is non-finite).
    """
    fits = call_fitness(fitness, draws)
    finite = np.isfinite(fits)
    if not np.logical_and.reduce(finite):
        fits = fits.copy()
        for row, ok in zip(fits.reshape(cells, lam),
                           finite.reshape(cells, lam)):
            row[~ok] = row[ok].min() - 1.0 if ok.any() else -1.0
    return fits


# estimator kind -> the formula of its per-sample weights
_FORMULAS = {SEARCH: "score", NATURAL: "natural_score", VO: "prob_gradient"}


def _weights(params, xs, kind):
    """Per-sample weights of one kind: ``(n, width)`` for a distribution
    and its ``n`` samples, ``(m, n, width)`` for a block of ``m`` holes
    and their ``(m, n)`` samples."""
    return getattr(params, _FORMULAS[kind])(xs)


def estimate_gradient(params_set, fitness, lam, rng, kinds,
                      fitness_transform=None):
    """Core estimator: (1/lam) * sum_k f(x_k) * w(x_k) per distribution.

    The public edge of the estimate: each argument's convenience form is
    converted here, once.  ``params_set`` is a :class:`ParamState` or a
    list of distributions, ``rng`` a ``Generator`` (a list of one per
    cell) or a :class:`DrawPlan`, and ``kinds`` one kind for every
    distribution, one per distribution (the training loop mixes kinds
    across hole families) or a :class:`KindPlan`; ``lam < 1``, a list
    of ``Generator``s that is not one per cell, or a plan made for
    another layout or ``lam``, raises ``ValueError``.  States of one
    shape, the same hole keys and cell count, share one layout (see
    :meth:`ParamState.of`), so a plan made for one serves them all.
    ``fitness_transform``, when given, maps the fitnesses to the weights
    actually used (e.g. mean-centering), row by row of a ``(cells, lam)``
    array; the reported fitnesses stay untransformed.  The weights are
    one NumPy operation per group of holes (see :class:`ParamState`) and
    kind it holds, each other kind's rows overwriting the first kind's,
    and the weighted sums one ``matmul`` per group, written into the kind
    plan's buffer (see :class:`KindPlan`); one division by ``lam`` then
    makes the gradient vector, whose pads are 0.0.

    A state of several cells (see :meth:`ParamState.of`) holds the
    holes of one problem once per cell.  Every cell draws its own
    population, all of them are evaluated in one ``fitness`` call, and
    each cell's fitness replacement, transform and weights use only its
    own row, so each cell's gradients are those it would get alone.  A
    ``Generator`` given for several cells is drawn from once per
    estimate, and those cells see the same draws, each as it would draw
    them alone (see :class:`DrawPlan`).
    """
    if lam < 1:
        raise ValueError("population size must be >= 1")
    state = ParamState.of(params_set)
    layout = state.layout
    draw_plan = rng if isinstance(rng, DrawPlan) else DrawPlan(
        layout, (rng,) if isinstance(rng, np.random.Generator) else rng, lam)
    kind_plan = (kinds if isinstance(kinds, KindPlan)
                 else KindPlan(layout, kinds))
    if (draw_plan.layout is not layout or kind_plan.layout is not layout
            or draw_plan.lam != lam):
        raise ValueError("a draw or kind plan is for another layout or lam")
    cells = layout.cell_count
    samples = sample_population(state, draw_plan)
    # the program's holes, each with the members of every cell in turn
    holes = layout.cell_size
    members = samples[layout.member_rows].reshape(holes, cells * lam)
    fits = evaluate_fitnesses(fitness, members, lam, cells)
    rows = fits.reshape(cells, lam)
    weights = rows if fitness_transform is None else fitness_transform(rows)
    # per sample row: its own cell's weights
    hole_weights = weights[layout.grouped_cells][:, None, :]
    for group, block, (first, others, sums) in zip(
            layout.groups, state.blocks, kind_plan.groups):
        xs = samples[group.rows]
        # each _weights call returns a fresh array, so rows of the other
        # kinds overwrite the first kind's in place
        w = _weights(block, xs, first)
        for kind, rows in others:
            w[rows] = _weights(block, xs, kind)[rows]
        np.matmul(hole_weights[group.rows], w, out=sums)
    return GradientEstimate(kind_plan.sums / lam, fits, layout)


def exact_gradient_oracle(params_set, fitness, kind):
    """Infinite-population limit of an estimator, by exhaustive enumeration.

    Computes ``sum_x pi(x) f(x) w(x)`` over the full joint discrete
    support, a float64 ``(holes, size)`` matrix as a population is, scored
    in one :func:`call_fitness`.  Refuses supports above
    ``MAX_ORACLE_SUPPORT``.  A params set without holes has one support
    point, the empty assignment, and no gradients.
    """
    kinds = _resolve_kinds(kind, len(params_set))
    if not all(ParamState.of(params_set).layout.discrete):
        raise ValueError(
            "exact enumeration needs discrete distributions; freeze "
            "continuous holes to fixed values first")
    size = math.prod(len(p.support) for p in params_set)
    if size > MAX_ORACLE_SUPPORT:
        raise ValueError(f"joint support size {size} exceeds {MAX_ORACLE_SUPPORT}")

    joint = np.array(np.meshgrid(*[p.support for p in params_set],
                                 indexing="ij"),
                     dtype=np.float64).reshape(len(params_set), size)

    log_p = np.zeros(size)
    for p, xs in zip(params_set, joint):
        log_p += p.log_prob(xs)
    weighted = np.exp(log_p) * call_fitness(fitness, joint)
    return [weighted @ _weights(p, xs, k)
            for p, xs, k in zip(params_set, joint, kinds)]
