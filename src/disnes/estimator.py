"""Monte Carlo gradient estimators over a population of joint draws.

One population of ``lam`` joint hole assignments is sampled across all
search distributions at once; each member costs exactly one fitness
evaluation and the per-distribution gradients are read off the shared
population.  Three weightings are available:

* ``SEARCH``  -- plain score weighting (the log-derivative estimator).
* ``NATURAL`` -- Fisher-preconditioned score weighting.
* ``VO``      -- probability-gradient weighting.

``exact_gradient_oracle`` enumerates the joint discrete support and
computes the infinite-population limit of each estimator; it exists so the
Monte Carlo paths can be tested against an independent computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ParamState, is_discrete

SEARCH = "search"
NATURAL = "natural"
VO = "vo"

KINDS = (SEARCH, NATURAL, VO)

# Joint supports larger than this refuse enumeration in the oracle.
MAX_ORACLE_SUPPORT = 10**6


@dataclass
class GradientEstimate:
    """Result of one population estimate.

    ``gradients`` holds one array per distribution, aligned with the
    params-set order.  ``fitnesses`` holds every member's fitness, cell
    after cell for a state of several cells.  ``degenerate`` counts the
    cells whose fitnesses were all equal after non-finite replacement
    (advisory only; their gradients are still returned).
    """

    gradients: list
    fitnesses: np.ndarray
    degenerate: int


def mean(values):
    """``values.mean(axis=-1)``, bit for bit, without the Python layer of
    ``ndarray.mean``: a number for a 1-D array, one per row for a 2-D
    one."""
    return np.add.reduce(values, axis=-1) / values.shape[-1]


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


def sample_population(params_set, lam, rng):
    """Draw ``lam`` joint samples, one array per distribution.

    Consumption order over the rng is the params-set order, so identical
    rng states give identical populations regardless of which estimator
    kind is computed afterwards.  ``rng`` is a ``Generator``, or one per
    cell of a :class:`ParamState` of several cells.
    """
    if lam < 1:
        raise ValueError("population size must be >= 1")
    rngs = (rng,) if isinstance(rng, np.random.Generator) else rng
    return ParamState.of(params_set).sample(rngs, lam)


def _members(draws, cells):
    """Per-hole draws of ``cells`` cells of one problem as the program's
    per-hole draws of all their members, cell after cell."""
    if cells == 1:
        return draws
    holes = len(draws) // cells
    return [np.concatenate(draws[h::holes]) for h in range(holes)]


def evaluate_fitnesses(fitness, draws, lam, cells=1):
    """Evaluate the fitness of every population member.

    ``draws`` holds ``cells * lam`` members, the populations of ``cells``
    cells one after the other.  Uses the batched
    ``fitness.population(draws)`` path when the callable provides one,
    otherwise calls ``fitness`` once per member with the tuple of per-hole
    values.  Non-finite fitnesses are replaced by the worst finite fitness
    of the member's cell minus 1 (or -1.0 if the cell's whole population
    is non-finite).
    """
    members = cells * lam
    if hasattr(fitness, "population"):
        fits = np.asarray(fitness.population(draws), dtype=np.float64)
    else:
        fits = np.array(
            [float(fitness(tuple(d[i] for d in draws)))
             for i in range(members)],
            dtype=np.float64,
        )
    if fits.shape != (members,):
        raise ValueError(
            f"fitness returned shape {fits.shape}, expected ({members},)")
    finite = np.isfinite(fits)
    if not finite.all():
        fits = fits.copy()
        for row, ok in zip(fits.reshape(cells, lam),
                           finite.reshape(cells, lam)):
            row[~ok] = row[ok].min() - 1.0 if ok.any() else -1.0
    return fits


def _weights(params, xs, kind):
    """Per-sample weights of one kind: ``(n, width)`` for a distribution
    and its ``n`` samples, ``(m, n, width)`` for a block of ``m`` holes
    and their ``(m, n)`` samples."""
    if kind == SEARCH:
        return np.atleast_2d(params.score(xs))
    if kind == NATURAL:
        return np.atleast_2d(params.natural_score(xs))
    return np.atleast_2d(params.prob_gradient(xs))


def estimate_gradient(params_set, fitness, lam, rng, kinds,
                      fitness_transform=None):
    """Core estimator: (1/lam) * sum_k f(x_k) * w(x_k) per distribution.

    ``params_set`` is a :class:`ParamState` or a list of distributions.
    ``kinds`` is a single kind applied to every distribution or a per-
    distribution sequence (the training loop mixes kinds across hole
    families).  ``fitness_transform``, when given, maps the fitnesses to
    the weights actually used (e.g. mean-centering), row by row of a
    ``(cells, lam)`` array; the reported fitnesses stay untransformed.
    The weights and the weighted sum are one NumPy operation per group of
    holes with the same family, K and mode (and per kind, where a group
    mixes kinds).

    A state of several cells (see :meth:`ParamState.joined`) holds the
    holes of one problem once per cell, and ``rng`` is then one
    ``Generator`` per cell.  Every cell draws its own population, all of
    them are evaluated in one ``fitness`` call, and each cell's fitness
    replacement, transform and weights use only its own row, so each
    cell's gradients are those it would get alone.
    """
    state = ParamState.of(params_set)
    kinds = _resolve_kinds(kinds, len(state))
    cells = state.layout.cell_count
    draws = sample_population(state, lam, rng)
    fits = evaluate_fitnesses(fitness, _members(draws, cells), lam, cells)
    rows = fits.reshape(cells, lam)
    degenerate = int(np.count_nonzero((rows == rows[:, :1]).all(axis=1)))
    weights = rows if fitness_transform is None else fitness_transform(rows)
    samples = np.array(draws, dtype=np.float64)
    gradients = [None] * len(state)
    for group, block in zip(state.layout.groups, state.blocks):
        group_kinds = [kinds[h] for h in group.holes]
        xs = samples[group.index]
        # each hole's row of weights is its own cell's
        cell_weights = weights[group.cells][:, None, :]
        for kind in dict.fromkeys(group_kinds):
            grads = np.matmul(cell_weights, _weights(block, xs, kind))
            grads = grads[:, 0] / lam
            for hole, k, g in zip(group.holes, group_kinds, grads):
                if k == kind:
                    gradients[hole] = g
    return GradientEstimate(gradients, fits, degenerate)


def joint_support_size(params_set):
    size = 1
    for p in params_set:
        if not is_discrete(p):
            raise ValueError(
                "exact enumeration needs discrete distributions; freeze "
                "continuous holes to fixed values first"
            )
        size *= len(p.support)
    return size


def exact_gradient_oracle(params_set, fitness, kind):
    """Infinite-population limit of an estimator, by exhaustive enumeration.

    Computes ``sum_x pi(x) f(x) w(x)`` over the full joint discrete
    support.  Refuses supports above ``MAX_ORACLE_SUPPORT``.
    """
    kinds = _resolve_kinds(kind, len(params_set))
    size = joint_support_size(params_set)
    if size > MAX_ORACLE_SUPPORT:
        raise ValueError(f"joint support size {size} exceeds {MAX_ORACLE_SUPPORT}")

    supports = [p.support for p in params_set]
    grids = np.meshgrid(*supports, indexing="ij")
    joint = np.stack([g.reshape(-1) for g in grids], axis=1)  # (size, n_holes)

    log_p = np.zeros(size)
    for i, p in enumerate(params_set):
        log_p += p.log_prob(joint[:, i])
    probs = np.exp(log_p)

    fits = np.array([float(fitness(tuple(row))) for row in joint])
    weighted = probs * fits
    return [
        weighted @ _weights(p, joint[:, i], k)
        for i, (p, k) in enumerate(zip(params_set, kinds))
    ]
