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

from .distributions import is_discrete

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
    params-set order.  ``degenerate`` flags a population whose fitnesses
    were all equal after non-finite replacement (advisory only; the
    gradient is still returned).
    """

    gradients: list
    fitnesses: np.ndarray
    degenerate: bool

    @property
    def mean_fitness(self):
        return float(self.fitnesses.mean())


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
    kind is computed afterwards.
    """
    if lam < 1:
        raise ValueError("population size must be >= 1")
    return [p.sample(rng, size=lam) for p in params_set]


def evaluate_fitnesses(fitness, draws, lam):
    """Evaluate the fitness of every population member.

    Uses the batched ``fitness.population(draws)`` path when the callable
    provides one, otherwise calls ``fitness`` once per member with the
    tuple of per-hole values.  Non-finite fitnesses are replaced by the
    worst finite fitness in the population minus 1 (or -1.0 if the whole
    population is non-finite).
    """
    if hasattr(fitness, "population"):
        fits = np.asarray(fitness.population(draws), dtype=np.float64)
    else:
        fits = np.array(
            [float(fitness(tuple(d[i] for d in draws))) for i in range(lam)],
            dtype=np.float64,
        )
    if fits.shape != (lam,):
        raise ValueError(f"fitness returned shape {fits.shape}, expected ({lam},)")
    finite = np.isfinite(fits)
    if not finite.all():
        floor = fits[finite].min() - 1.0 if finite.any() else -1.0
        fits = np.where(finite, fits, floor)
    return fits


def _weights(params, xs, kind):
    if kind == SEARCH:
        return np.atleast_2d(params.score(xs))
    if kind == NATURAL:
        return np.atleast_2d(params.natural_score(xs))
    return np.atleast_2d(params.prob_gradient(xs))


def estimate_gradient(params_set, fitness, lam, rng, kinds,
                      fitness_transform=None):
    """Core estimator: (1/lam) * sum_k f(x_k) * w(x_k) per distribution.

    ``kinds`` is a single kind applied to every distribution or a per-
    distribution sequence (the training loop mixes kinds across hole
    families).  ``fitness_transform``, when given, maps the population
    fitness vector to the weights actually used (e.g. mean-centering);
    the reported fitnesses stay untransformed.
    """
    kinds = _resolve_kinds(kinds, len(params_set))
    draws = sample_population(params_set, lam, rng)
    fits = evaluate_fitnesses(fitness, draws, lam)
    degenerate = bool(np.all(fits == fits[0]))
    weights = fits if fitness_transform is None else fitness_transform(fits)
    gradients = [
        weights @ _weights(p, xs, kind) / lam
        for p, xs, kind in zip(params_set, draws, kinds)
    ]
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
