"""Search-distribution families used by the gradient estimators.

Three families are supported:

* Bernoulli over {0, 1}, parametrized by the success probability ``theta``.
* Categorical over {0, ..., K-1}, parametrized either by unconstrained
  logits (softmax) or directly by a probability vector.  The probability
  parametrization exists to realize the explicit Fisher-preconditioned
  update; logits are the default everywhere else.
* Univariate Gaussian, parametrized by ``(mu, log_sigma)``.

Every family exposes sampling, log-probability, the score (gradient of the
log-probability), a Fisher-preconditioned "natural" score, the gradient of
the probability itself, and entropy.  All per-sample operations accept a
single sample or a 1-D array of samples; in the array case gradients come
back as ``(n, dim)`` with one row per sample.

All operations are pure given ``(params, rng)``; callers that run
concurrently must each own a distinct ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Probability floor applied after every parameter update; keeps scores and
# Fisher terms finite.
EPS = 1e-6

LOGITS = "logits"
PROBS = "probs"


def _as_samples(x):
    """Normalize a scalar-or-array sample argument.

    Returns ``(xs, scalar)`` where ``xs`` is a 1-D float64 array and
    ``scalar`` says whether the caller passed a single sample.
    """
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    return np.atleast_1d(xs), scalar


def _squeeze(rows, scalar):
    return rows[0] if scalar else rows


def _projected(cls, **fields):
    """A ``cls`` made by :meth:`stepped` without running ``__post_init__``.

    The projection keeps each family's range by construction; finiteness,
    the one property an update can break, is checked by
    :func:`disnes.optimizer.sgd_step`, so a divergent step raises
    ``FloatingPointError`` there instead of ``ValueError`` here.
    """
    params = object.__new__(cls)
    params.__dict__.update(fields)
    return params


@lru_cache(maxsize=None)
def _eye(k):
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


@dataclass
class BernoulliParams:
    """Bernoulli search distribution with success probability ``theta``.

    ``theta`` is kept strictly inside (0, 1); :meth:`stepped` clamps to
    ``[EPS, 1 - EPS]`` after every update.
    """

    theta: float

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")

    @property
    def support(self):
        return np.array([0, 1])

    def sample(self, rng, size=None):
        """Draw 0/1 samples; ``size=None`` gives a single int."""
        u = rng.random(size if size is not None else 1)
        x = (u < self.theta).astype(np.int64)
        return int(x[0]) if size is None else x

    def log_prob(self, x):
        xs, scalar = _as_samples(x)
        lp = xs * math.log(self.theta) + (1.0 - xs) * math.log(1.0 - self.theta)
        return _squeeze(lp, scalar)

    def score(self, x):
        """d/d theta of the log-pmf: (x - theta) / (theta (1 - theta))."""
        xs, scalar = _as_samples(x)
        g = (xs - self.theta) / (self.theta * (1.0 - self.theta))
        return _squeeze(g[:, None], scalar)

    def natural_score(self, x):
        """Score preconditioned by 1/F = theta (1 - theta): just x - theta."""
        xs, scalar = _as_samples(x)
        return _squeeze((xs - self.theta)[:, None], scalar)

    def prob_gradient(self, x):
        """d/d theta of the pmf itself: +1 for x=1, -1 for x=0."""
        xs, scalar = _as_samples(x)
        probs = np.where(xs > 0.5, self.theta, 1.0 - self.theta)
        g = probs[:, None] * np.atleast_2d(self.score(xs))
        return _squeeze(g, scalar)

    def fim(self):
        """Fisher information, as the single diagonal entry."""
        return np.array([1.0 / (self.theta * (1.0 - self.theta))])

    def inverse_fim(self):
        return np.array([self.theta * (1.0 - self.theta)])

    def entropy(self):
        t = self.theta
        return -(t * math.log(t) + (1.0 - t) * math.log(1.0 - t))

    def greedy(self):
        """Modal value; ties at theta == 0.5 resolve to 1."""
        return 1 if self.theta >= 0.5 else 0

    def stepped(self, gradient, eta):
        """Ascent step followed by the clamping projection."""
        theta = self.theta + eta * float(np.asarray(gradient).reshape(-1)[0])
        return _projected(BernoulliParams,
                          theta=float(np.clip(theta, EPS, 1.0 - EPS)))

    def copy(self):
        return BernoulliParams(self.theta)


@dataclass
class CategoricalParams:
    """Categorical search distribution over ``K >= 2`` categories.

    ``mode=LOGITS`` stores unconstrained logits (probabilities via softmax);
    ``mode=PROBS`` stores the probability vector directly.  The score
    depends on the mode:

    * LOGITS: ``onehot(x) - p`` (softmax score).
    * PROBS: ``onehot(x) / p`` (per-coordinate log-pmf partials, used only
      by the explicit Fisher path).
    """

    values: np.ndarray
    mode: str = LOGITS

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).copy()
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("values must be a 1-D vector of length >= 2")
        if self.mode not in (LOGITS, PROBS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")
        if self.mode == PROBS:
            if self.values.min() <= 0.0 or self.values.max() >= 1.0:
                raise ValueError("probabilities must lie in (0, 1)")
            if abs(self.values.sum() - 1.0) > 1e-6:
                raise ValueError("probabilities must sum to 1")

    @property
    def k(self):
        return self.values.size

    @property
    def support(self):
        return np.arange(self.k)

    def probs(self):
        return self.values.copy() if self.mode == PROBS else softmax(self.values)

    def sample(self, rng, size=None):
        """Inverse-CDF sampling; boundary ties break toward the lower index."""
        p = self.probs()
        cum = np.cumsum(p)
        u = rng.random(size if size is not None else 1)
        idx = np.searchsorted(cum, u, side="left")
        idx = np.minimum(idx, self.k - 1)
        return int(idx[0]) if size is None else idx

    def log_prob(self, x):
        xs, scalar = _as_samples(x)
        lp = np.log(self.probs())[xs.astype(np.int64)]
        return _squeeze(lp, scalar)

    def _onehot(self, xs):
        return _eye(self.k)[xs.astype(np.int64)]

    def score(self, x):
        xs, scalar = _as_samples(x)
        onehot = self._onehot(xs)
        if self.mode == LOGITS:
            g = onehot - self.probs()[None, :]
        else:
            g = onehot / self.values[None, :]
        return _squeeze(g, scalar)

    def natural_score(self, x):
        """Probability-space natural score: ``p_i * (onehot(x)_i - p_i)``."""
        xs, scalar = _as_samples(x)
        p = self.probs()
        g = p[None, :] * (self._onehot(xs) - p[None, :])
        return _squeeze(g, scalar)

    def prob_gradient(self, x):
        xs, scalar = _as_samples(x)
        p = self.probs()
        g = p[xs.astype(np.int64)][:, None] * np.atleast_2d(self.score(xs))
        return _squeeze(g, scalar)

    def fim(self):
        """Diagonal Fisher entries 1/p_k; requires the PROBS parametrization."""
        if self.mode != PROBS:
            raise ValueError("fim() is defined for the PROBS parametrization")
        return 1.0 / self.values

    def inverse_fim(self):
        """Elementwise reciprocal of :meth:`fim`: the probability vector."""
        return self.probs()

    def entropy(self):
        p = self.probs()
        return float(-(p * np.log(p)).sum())

    def greedy(self):
        """Modal category; ties break toward the lower index."""
        return int(np.argmax(self.probs()))

    def stepped(self, gradient, eta):
        g = np.asarray(gradient, dtype=np.float64).reshape(-1)
        values = self.values + eta * g
        if self.mode == PROBS:
            values = np.clip(values, EPS, 1.0 - EPS)
            values = values / values.sum()
        return _projected(CategoricalParams, values=values, mode=self.mode)

    def copy(self):
        return CategoricalParams(self.values.copy(), mode=self.mode)


@dataclass
class GaussianParams:
    """Univariate Gaussian with parameters ``(mu, log_sigma)``."""

    mu: float
    log_sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.log_sigma)):
            raise ValueError("mu and log_sigma must be finite")

    @property
    def sigma(self):
        return math.exp(self.log_sigma)

    def sample(self, rng, size=None):
        z = rng.standard_normal(size if size is not None else 1)
        x = self.mu + self.sigma * z
        return float(x[0]) if size is None else x

    def log_prob(self, x):
        xs, scalar = _as_samples(x)
        z = (xs - self.mu) / self.sigma
        lp = -0.5 * z * z - self.log_sigma - 0.5 * math.log(2.0 * math.pi)
        return _squeeze(lp, scalar)

    def score(self, x):
        """Gradient of the log-density wrt (mu, log_sigma)."""
        xs, scalar = _as_samples(x)
        z = (xs - self.mu) / self.sigma
        g = np.empty((xs.size, 2))
        g[:, 0] = z / self.sigma
        g[:, 1] = z * z - 1.0
        return _squeeze(g, scalar)

    def natural_score(self, x):
        """Score preconditioned by the inverse Fisher diag(sigma^2, 1/2).

        This is the variance-adaptive update of continuous evolution-strategy
        practice: the mu component becomes ``x - mu`` and the log_sigma
        component ``(z^2 - 1) / 2``.
        """
        xs, scalar = _as_samples(x)
        z = (xs - self.mu) / self.sigma
        g = np.empty((xs.size, 2))
        g[:, 0] = xs - self.mu
        g[:, 1] = 0.5 * (z * z - 1.0)
        return _squeeze(g, scalar)

    def prob_gradient(self, x):
        xs, scalar = _as_samples(x)
        dens = np.exp(self.log_prob(xs))
        g = dens[:, None] * np.atleast_2d(self.score(xs))
        return _squeeze(g, scalar)

    def entropy(self):
        """Differential entropy, in nats."""
        return 0.5 * math.log(2.0 * math.pi * math.e) + self.log_sigma

    def greedy(self):
        return self.mu

    def stepped(self, gradient, eta):
        g = np.asarray(gradient, dtype=np.float64).reshape(-1)
        return _projected(GaussianParams, mu=self.mu + eta * float(g[0]),
                          log_sigma=self.log_sigma + eta * float(g[1]))

    def copy(self):
        return GaussianParams(self.mu, self.log_sigma)


DISCRETE_FAMILIES = (BernoulliParams, CategoricalParams)


def is_discrete(params):
    return isinstance(params, DISCRETE_FAMILIES)
