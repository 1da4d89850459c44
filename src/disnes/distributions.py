"""Search-distribution families and the flat parameter state of the
training loop.

Three families are supported:

* Bernoulli over {0, 1}, parametrized by the success probability ``theta``.
* Categorical over {0, ..., K-1}, parametrized either by unconstrained
  logits (softmax) or directly by a probability vector.  The probability
  parametrization exists to realize the explicit Fisher-preconditioned
  update; logits are the default everywhere else.
* Univariate Gaussian, parametrized by ``(mu, log_sigma)``.

Each family's formulas are written once, in its block class
(:class:`BernoulliBlock`, :class:`CategoricalBlock`,
:class:`GaussianBlock`): log-probability, the score (gradient of the
log-probability), a Fisher-preconditioned "natural" score, the gradient
of the probability itself, entropy, greedy decode, for Bernoulli and
Gaussian blocks the map from a uniform or normal to a sample and, for
:class:`BernoulliBlock` and the probability-parametrized categorical
:class:`ProbsBlock`, the projection after a step.  Categories are drawn
by :class:`DrawPlan` alone, the one inverse-CDF sampler.  A block holds
``m`` holes of one block type as an ``(m, width)`` array, one row per
hole, and computes its derived arrays (a categorical's probabilities
``p``, a Gaussian's ``sigma``) when it is made; samples are ``(m, n)``
and gradients come back ``(m, n, width)``.  A categorical formula is
first made per category, as an ``(m, K, K)`` table, and each sample
gathers its category's row of it.

:class:`ParamState` keeps every hole's parameters in one float64 vector.
Holes are grouped by block type (see :func:`_group_key`); the vector holds
one group after the other, so each group's block is a reshaped slice of
it and a training step is one NumPy operation per group, not per hole.  A
categorical hole with fewer categories than its group's widest fills the
rest of its row with pads, categories of probability exactly 0: 0.0 as a
probability, ``-inf`` as a logit.  A state may hold several cells
(independent training runs, each with its own learning rate and random
stream), one after the other in hole order; every formula works row by
row, so a cell's numbers do not depend on the cells beside it.

The per-hole classes (:class:`BernoulliParams`, :class:`CategoricalParams`,
:class:`GaussianParams`), the API for single distributions, are one-row
views of their family's block: their methods, written once on
:class:`_Distribution`, run the block formulas on a one-row block,
``sample`` is the draw of a one-hole state (see :class:`DrawPlan`) and
``stepped`` is the checked step of a one-hole state (see
:meth:`ParamState.stepped`).  Per-sample methods accept a single sample or
a 1-D array of samples; in the array case gradients come back as
``(n, width)`` with one row per sample.  Each class names its family,
checks its fields and gives its params-snapshot fields; :data:`FAMILIES`
maps the names back to them.

Random draws read the stream in hole order: each Bernoulli or categorical
hole takes ``n`` uniforms and each Gaussian hole ``n`` standard normals,
with one ``Generator`` call per hole of one cell (bound once by a
:class:`DrawPlan`).  Cells that share a ``Generator`` share its draws:
the plan calls it for the first such cell only and copies those rows to
each of them.  A :class:`DrawPlan` turns the uniforms of every categorical
hole into categories at once, through one table of cumulative
probabilities.  A state's draws come as one ``(holes, n)`` float64
matrix in its group order (see :class:`ParamState`), so a group's
samples are one slice of it.  Each cell reads its own generator's stream
as a one-cell state would, so a state, each of its cells and its
per-hole distributions draw the same samples from the same seeds.

All operations are pure given ``(params, rng)``; callers that run
concurrently must each own a distinct ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

# Probability floor applied after every parameter update; keeps scores and
# Fisher terms finite.
EPS = 1e-6

# Largest log sigma whose sigma = exp(log sigma) is a finite float, and
# smallest whose sigma is a positive normal float; the largest finite f32.
LOG_SIGMA_MAX = math.log(sys.float_info.max)
LOG_SIGMA_MIN = math.log(sys.float_info.min)
F32_MAX = float(np.finfo(np.float32).max)
# Largest logit magnitude at which ``l - max(l)`` of a softmax cannot
# overflow.
LOGIT_MAX = sys.float_info.max / 2

LOGITS = "logits"
PROBS = "probs"

# Widest categorical row that shares a group with rows of other widths
# (see _group_key).
PAD_MAX = 7


def _unchecked(cls, **fields):
    """A ``cls`` built without running ``__post_init__``, for values that a
    step checked or, in a :class:`DivergenceError`, found out of bounds."""
    params = object.__new__(cls)
    for name, value in fields.items():
        # attribute by attribute, so instances share their dict's keys
        setattr(params, name, value)
    return params


def _softmax(logits):
    """Row-wise softmax of an ``(m, K)`` array."""
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=1, keepdims=True)


# --- Block formulas ---------------------------------------------------------

class _Block:
    """``m`` holes of one family as an ``(m, width)`` array ``values``.

    A block is read-only: quantities derived from ``values`` are computed
    when it is made.  A type that projects has a static ``project``,
    which acts on a values array before a block is made of it.  ``lower``
    and ``upper`` bound every column or each column (default: any finite
    value); a step out of them diverges.  ``discrete`` tells whether
    samples are category indices.  ``distribution`` makes the per-hole
    distribution of one hole's values.
    """

    lower, upper = -sys.float_info.max, sys.float_info.max
    discrete = True

    def __init__(self, values):
        self.values = values


class BernoulliBlock(_Block):
    """Bernoulli holes: one column, ``theta``."""

    draw = "random"

    def sample(self, u):
        return (u < self.values).astype(np.int64)

    def log_prob(self, x):
        # scalar libm logs: np.log may differ from math.log in the last bit
        thetas = self.values[:, 0].tolist()
        log_t = np.array([math.log(t) for t in thetas])[:, None]
        log_f = np.array([math.log(1.0 - t) for t in thetas])[:, None]
        return x * log_t + (1.0 - x) * log_f

    def score(self, x):
        """d/d theta of the log-pmf: (x - theta) / (theta (1 - theta))."""
        t = self.values
        return ((x - t) / (t * (1.0 - t)))[..., None]

    def natural_score(self, x):
        """Score preconditioned by 1/F = theta (1 - theta): just x - theta."""
        return (x - self.values)[..., None]

    def prob_gradient(self, x):
        """d/d theta of the pmf itself: +1 for x=1, -1 for x=0."""
        t = self.values
        return np.where(x > 0.5, t, 1.0 - t)[..., None] * self.score(x)

    def entropy(self):
        return np.array([-(t * math.log(t) + (1.0 - t) * math.log(1.0 - t))
                         for t in self.values[:, 0].tolist()])

    def greedy(self):
        """Modal values; ties at theta == 0.5 resolve to 1."""
        return [1 if t >= 0.5 else 0 for t in self.values[:, 0].tolist()]

    @staticmethod
    def project(values, real=None):
        """Clamp theta to ``[EPS, 1 - EPS]``, in place; a Bernoulli row has
        no pads, so ``real`` is None."""
        _clip(values)

    @staticmethod
    def distribution(values):
        return _unchecked(BernoulliParams, theta=float(values[0]))


def _clip(values):
    """``np.clip(values, EPS, 1 - EPS)`` in place, NaN kept, without the
    Python layer of ``np.clip``."""
    np.maximum(values, EPS, out=values)
    np.minimum(values, 1.0 - EPS, out=values)


class CategoricalBlock(_Block):
    """Categorical holes as K columns of logits, each within ``LOGIT_MAX``
    of 0.  Each per-sample formula is an ``(m, K, K)`` category table,
    whose row ``c`` of hole ``h`` is the formula's value at category
    ``c``; the samples gather their rows of it (see :func:`_rows`), which
    gives the ``(m, n, K)`` layout.

    A hole of fewer categories may end its row in ``pad`` columns, of
    probability exactly 0: the softmax of a ``-inf`` logit.  A table's
    row of a real category is 0 in a pad's column, and no sample is a
    pad, so every weight of a pad is 0; ``log_prob`` takes unpadded rows
    only.  A :class:`DrawPlan` draws the categories, padded or not."""

    draw = "random"
    mode = LOGITS
    lower, upper = -LOGIT_MAX, LOGIT_MAX
    pad = -math.inf

    def __init__(self, values):
        self.values = values
        self.p = _softmax(values)  # the probabilities, one row per hole

    def log_prob(self, x):
        return _rows(np.log(self.p), x)

    def _score_table(self):
        return _identity(self.values.shape[1]) - self.p[:, None, :]

    def score(self, x):
        """The softmax score ``onehot(x) - p``."""
        return _rows(self._score_table(), x)

    def natural_score(self, x):
        """Probability-space natural score: ``p_i * (onehot(x)_i - p_i)``."""
        p = self.p[:, None, :]
        return _rows(p * (_identity(p.shape[2]) - p), x)

    def prob_gradient(self, x):
        """``p_x`` times the score."""
        return _rows(self.p[:, :, None] * self._score_table(), x)

    def entropy(self):
        """Entropy per hole, taking 0 * log 0 as 0: a softmax can underflow
        to a zero probability."""
        p = self.p
        return -np.add.reduce(p * np.log(np.where(p > 0.0, p, 1.0)), axis=1)

    def greedy(self):
        """Modal categories; ties break toward the lower index."""
        return np.argmax(self.p, axis=1).tolist()

    @classmethod
    def distribution(cls, values):
        return _unchecked(CategoricalParams, values=values.copy(),
                          mode=cls.mode)


class ProbsBlock(CategoricalBlock):
    """Categorical holes as K columns of probabilities, the
    parametrization of the explicit Fisher step; its score is the log-pmf
    partials ``onehot(x) / p``.  A pad is a probability of 0.0."""

    mode = PROBS
    pad = 0.0

    def __init__(self, values):
        self.values = self.p = values

    def _score_table(self):
        # every real probability is at least EPS; a pad divides by +inf,
        # so its column is 0, not 0 / 0
        values = self.values
        return _identity(values.shape[1]) / np.where(
            values > 0.0, values, math.inf)[:, None, :]

    @staticmethod
    def project(values, real=None):
        """Clamp to ``[EPS, 1 - EPS]``, set the pads back to 0.0 and
        renormalize, in place.  ``real`` is 1.0 at each real entry and 0.0
        at each pad, or None for rows without pads."""
        _clip(values)
        if real is not None:
            values *= real
        values /= np.add.reduce(values, axis=1, keepdims=True)


@lru_cache(maxsize=None)
def _identity(k):
    """The ``(K, K)`` identity: row ``c`` is the one-hot of category
    ``c``."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=None)
def _first_rows(m, k):
    """Where each of ``m`` holes' ``k`` rows start in a table flattened
    over its holes, as an ``(m, 1)`` column."""
    column = (np.arange(m) * k)[:, None]
    column.flags.writeable = False
    return column


def _rows(table, x):
    """``table[h, x[h, j]]`` at ``(h, j)`` of an ``(m, n)`` array ``x`` of
    category indices: an ``(m, K)`` table gives ``(m, n)``, an
    ``(m, K, K)`` one ``(m, n, K)``.  One ``take`` from the table
    flattened over its holes gathers them."""
    m, k = table.shape[:2]
    return table.reshape((m * k,) + table.shape[2:]).take(
        x.astype(np.intp) + _first_rows(m, k), axis=0)


class GaussianBlock(_Block):
    """Gaussian holes: two columns, ``mu`` and ``log_sigma``."""

    draw = "standard_normal"
    discrete = False
    # mu must stay a finite f32 (a decoded program writes it as an f32
    # literal), sigma a finite, positive normal float
    lower = (-F32_MAX, LOG_SIGMA_MIN)
    upper = (F32_MAX, LOG_SIGMA_MAX)

    def __init__(self, values):
        self.values = values
        # scalar libm exp: np.exp may differ from math.exp in the last bit
        self.sigma = np.array([math.exp(s)
                               for s in values[:, 1].tolist()])[:, None]

    def sample(self, z):
        return self.values[:, :1] + self.sigma * z

    def log_prob(self, x):
        z = (x - self.values[:, :1]) / self.sigma
        return (-0.5 * z * z - self.values[:, 1:]
                - 0.5 * math.log(2.0 * math.pi))

    def score(self, x):
        """Gradient of the log-density wrt (mu, log_sigma)."""
        z = (x - self.values[:, :1]) / self.sigma
        g = np.empty(x.shape + (2,))
        g[..., 0] = z / self.sigma
        g[..., 1] = z * z - 1.0
        return g

    def natural_score(self, x):
        """Score preconditioned by the inverse Fisher diag(sigma^2, 1/2).

        This is the variance-adaptive update of continuous evolution-strategy
        practice: the mu component becomes ``x - mu`` and the log_sigma
        component ``(z^2 - 1) / 2``.
        """
        d = x - self.values[:, :1]
        z = d / self.sigma
        g = np.empty(x.shape + (2,))
        g[..., 0] = d
        g[..., 1] = 0.5 * (z * z - 1.0)
        return g

    def prob_gradient(self, x):
        return np.exp(self.log_prob(x))[..., None] * self.score(x)

    def entropy(self):
        """Differential entropy, in nats."""
        return 0.5 * math.log(2.0 * math.pi * math.e) + self.values[:, 1]

    def greedy(self):
        return self.values[:, 0].tolist()

    @staticmethod
    def distribution(values):
        return _unchecked(GaussianParams, mu=float(values[0]),
                          log_sigma=float(values[1]))


# --- Per-hole distributions -------------------------------------------------

def _one_row(formula):
    """The per-hole form of the block formula named ``formula``, of
    ``(m, n)`` samples: it takes a single sample or a 1-D array of them."""
    def method(self, x):
        xs = np.asarray(x, dtype=np.float64)
        rows = getattr(self._block(), formula)(np.atleast_1d(xs)[None, :])[0]
        return rows[0] if xs.ndim == 0 else rows
    method.__name__ = method.__qualname__ = formula
    return method


class _Distribution:
    """What the per-hole families share, as one-row views of their blocks
    (``_block``).  ``family`` names a family in params snapshots (see
    :data:`FAMILIES`) and check names; its dataclass fields are the
    snapshot's fields, which :meth:`snapshot` gives in snapshot order as
    JSON values.  Each family binds the methods that ``bench/tracer.py``
    wraps in its own class too, where the tracer looks them up."""

    def sample(self, rng, size=None):
        """``size`` draws, int64 (float64: Gaussian), or with ``size=None``
        one int (float): the draws of a one-hole state."""
        state = ParamState.of([self])
        plan = DrawPlan(state.layout, [rng], 1 if size is None else size)
        x = plan.sample(state.blocks)[0]
        if state.layout.discrete[0]:
            x = x.astype(np.int64)
        return x if size is not None else x[0].item()

    log_prob = _one_row("log_prob")
    score = _one_row("score")
    natural_score = _one_row("natural_score")
    prob_gradient = _one_row("prob_gradient")

    def entropy(self):
        return float(self._block().entropy()[0])

    def stepped(self, gradient, eta):
        """The step of a one-hole state (see :meth:`ParamState.stepped`):
        a divergent step raises :class:`DivergenceError` naming hole 0."""
        state = ParamState.of([self])
        return state.stepped(state.layout.vector_of([gradient]), eta)[0]

    def greedy(self):
        return self._block().greedy()[0]

    def copy(self):
        return replace(self)


@dataclass
class BernoulliParams(_Distribution):
    """Bernoulli search distribution with success probability ``theta``.

    ``theta`` is kept strictly inside (0, 1); :meth:`stepped` clamps to
    ``[EPS, 1 - EPS]`` after every update.
    """

    family = "bernoulli"
    theta: float
    sample = _Distribution.sample
    score = _Distribution.score
    natural_score = _Distribution.natural_score
    prob_gradient = _Distribution.prob_gradient
    entropy = _Distribution.entropy
    stepped = _Distribution.stepped

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")

    def snapshot(self):
        return {"theta": float(self.theta)}

    def _block(self):
        return BernoulliBlock(np.array([[self.theta]]))

    @property
    def support(self):
        return np.array([0, 1])

    def fim(self):
        """Fisher information, as the single diagonal entry."""
        return np.array([1.0 / (self.theta * (1.0 - self.theta))])

    def inverse_fim(self):
        return np.array([self.theta * (1.0 - self.theta)])


@dataclass
class CategoricalParams(_Distribution):
    """Categorical search distribution over ``K >= 2`` categories.

    ``mode=LOGITS`` stores logits within ``LOGIT_MAX`` of 0
    (probabilities via softmax, a :class:`CategoricalBlock`);
    ``mode=PROBS`` stores the probability vector directly (a
    :class:`ProbsBlock`).  The score depends on the mode:

    * LOGITS: ``onehot(x) - p`` (softmax score).
    * PROBS: ``onehot(x) / p`` (per-coordinate log-pmf partials, used only
      by the explicit Fisher path).
    """

    family = "categorical"
    values: np.ndarray
    mode: str = LOGITS
    sample = _Distribution.sample
    score = _Distribution.score
    natural_score = _Distribution.natural_score
    prob_gradient = _Distribution.prob_gradient
    entropy = _Distribution.entropy
    stepped = _Distribution.stepped

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
        elif not (CategoricalBlock.lower <= self.values.min()
                  and self.values.max() <= CategoricalBlock.upper):
            raise ValueError(
                f"logits must lie in [{CategoricalBlock.lower:.7g}, "
                f"{CategoricalBlock.upper:.7g}], got {self.values.tolist()}")

    def snapshot(self):
        return {"mode": self.mode, "values": self.values.tolist()}

    def _block(self):
        block_type = ProbsBlock if self.mode == PROBS else CategoricalBlock
        return block_type(self.values[None, :])

    @property
    def k(self):
        return self.values.size

    @property
    def support(self):
        return np.arange(self.k)

    def probs(self):
        return self._block().p[0].copy()

    def fim(self):
        """Diagonal Fisher entries 1/p_k; requires the PROBS parametrization."""
        if self.mode != PROBS:
            raise ValueError("fim() is defined for the PROBS parametrization")
        return 1.0 / self.values

    def inverse_fim(self):
        """Elementwise reciprocal of :meth:`fim`: the probability vector."""
        return self.probs()


@dataclass
class GaussianParams(_Distribution):
    """Univariate Gaussian with parameters ``(mu, log_sigma)``."""

    family = "gaussian"
    mu: float
    log_sigma: float
    sample = _Distribution.sample
    score = _Distribution.score
    natural_score = _Distribution.natural_score
    prob_gradient = _Distribution.prob_gradient
    entropy = _Distribution.entropy
    stepped = _Distribution.stepped

    def __post_init__(self):
        for name, low, high in zip(("mu", "log_sigma"), GaussianBlock.lower,
                                   GaussianBlock.upper):
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} must lie in [{low:.7g}, {high:.7g}]"
                                 f", got {getattr(self, name)}")

    def snapshot(self):
        return {"mu": float(self.mu), "log_sigma": float(self.log_sigma)}

    def _block(self):
        return GaussianBlock(np.array([[self.mu, self.log_sigma]]))

    @property
    def sigma(self):
        return math.exp(self.log_sigma)


# family name -> its per-hole class
FAMILIES = {cls.family: cls
            for cls in (BernoulliParams, CategoricalParams, GaussianParams)}


# --- The flat parameter state -----------------------------------------------

def _group_key(block_type, width):
    """The group of a hole of ``block_type`` whose row is ``width`` wide.

    A group pads each of its rows to its widest, and every real entry
    keeps its bits (checked with NumPy 2.4 and OpenBLAS 0.3) because:

    * NumPy sums a row up to ``PAD_MAX`` wide one entry after another, so
      zeros added at its end change no sum, softmax or cumulative sum
      (its pairwise summation starts at 8 entries);
    * OpenBLAS's gemv, under ``matmul``, takes a row's columns four at a
      time and the rest by another kernel, so a real column's weighted sum
      keeps its bits while the row keeps its number of whole fours.

    So rows up to ``PAD_MAX`` wide group by block type and ``width // 4``
    (2 or 3 wide, and 4 to 7 wide), and wider rows by block type and
    width.  A Bernoulli or Gaussian row is always 1 or 2 wide."""
    return block_type, width // 4 if width <= PAD_MAX else width


class _Group:
    """The holes of one group (see :func:`_group_key`), of ``widths``
    parameters each: positions ``start:stop`` of the vector, one row per
    hole as wide as the widest (``width``), and ``rows`` of a per-hole
    array in group order (the holes of one group after the other).  A
    narrower hole ends its row in pads; ``real`` is an ``(m, width)``
    array, 1.0 at each real entry and 0.0 at each pad, or None where no
    row has pads."""

    def __init__(self, block_type, widths, holes, start, first):
        self.block_type, self.width = block_type, max(widths)
        self.holes = tuple(holes)
        self.start, self.stop = start, start + self.width * len(holes)
        self.rows = slice(first, first + len(holes))
        real = np.arange(self.width) < np.array(widths)[:, None]
        self.real = None if real.all() else real.astype(np.float64)


class _Layout:
    """Where each hole's parameters sit in the vector; shared by every
    state stepped from the same params-set.

    ``keys`` gives each hole's (block type, width) in hole order and
    ``cell_of_hole`` its cell, out of ``cell_count`` (default: one cell).
    The holes are grouped by :func:`_group_key`, and a hole narrower than
    its group's widest row ends its row in pads: positions of the vector
    that belong to no parameter and hold the block type's ``pad``, which
    is also both of their bounds.  ``spans`` give each hole's parameters,
    which skip the pads.  The loop takes per-cell values, such as learning
    rates, to vector positions once through ``cell_of``; only the public
    steps convert per-hole gradients, through :meth:`vector_of`.
    ``projected`` lists the groups whose block type projects after a step.
    """

    def __init__(self, keys, cell_of_hole=None, cell_count=1):
        self.keys, self.size, self.cell_count = keys, len(keys), cell_count
        cells = np.zeros(self.size, dtype=np.intp) if cell_of_hole is None \
            else np.array(cell_of_hole, dtype=np.intp)
        by_key = {}
        for hole, key in enumerate(keys):
            by_key.setdefault(_group_key(*key), []).append(hole)
        self.groups, start, first = [], 0, 0
        for (block_type, _), holes in by_key.items():
            self.groups.append(_Group(block_type, [keys[h][1] for h in holes],
                                      holes, start, first))
            start, first = self.groups[-1].stop, first + len(holes)
        self.projected = [g for g in self.groups
                          if hasattr(g.block_type, "project")]
        # group order: the holes of one group after the other; the cell
        # of each row, and the row of each hole
        grouped = [h for g in self.groups for h in g.holes]
        self.grouped_cells = cells[grouped]
        row_of = np.empty(self.size, dtype=np.intp)
        row_of[grouped] = np.arange(self.size)
        # (program hole, cell) -> its row; each cell holds one program's
        # holes
        self.member_rows = row_of.reshape(cell_count, -1).T
        # vector position -> its hole
        self.hole_of = np.array([h for g in self.groups for h in g.holes
                                 for _ in range(g.width)], dtype=np.intp)
        self.cell_of = cells[self.hole_of]  # vector position -> its cell
        # vector position -> its bounds (see _Block), a pad's its value;
        # and a vector that holds each pad's value and 0.0 elsewhere
        self.lower, self.upper = np.empty((2, self.hole_of.size))
        self.padding = np.zeros(self.hole_of.size)
        for g in self.groups:
            size = g.stop - g.start
            self.lower[g.start:g.stop] = np.resize(g.block_type.lower, size)
            self.upper[g.start:g.stop] = np.resize(g.block_type.upper, size)
            if g.real is not None:
                pads = g.start + np.flatnonzero(g.real == 0.0)
                for values in (self.lower, self.upper, self.padding):
                    values[pads] = g.block_type.pad
        # hole -> its parameters' slice of the vector, and whether it draws
        # categories
        self.spans = [None] * self.size
        for g in self.groups:
            for j, hole in enumerate(g.holes):
                start = g.start + j * g.width
                self.spans[hole] = slice(start, start + keys[hole][1])
        self.discrete = [block_type.discrete for block_type, _ in keys]
        # per hole, in hole order: its draw type, its row and its cell
        self.draws = [(key[0].draw, row, cell) for key, row, cell
                      in zip(keys, row_of.tolist(), cells.tolist())]
        # per cell: its one-cell layout, and the positions in this vector
        # of that layout's vector
        self.cells = [(self, np.arange(self.hole_of.size))]

    @classmethod
    def joined(cls, layouts):
        """The one-cell ``layouts`` side by side, one cell each; they must
        have as many holes each, else ``ValueError``."""
        sizes = [lay.size for lay in layouts]
        if len(set(sizes)) > 1:
            raise ValueError("the cells of a joined state need as many holes"
                             f" each, got {', '.join(map(str, sizes))}")
        joint = cls([key for lay in layouts for key in lay.keys],
                    [c for c, lay in enumerate(layouts) for _ in lay.keys],
                    len(layouts))
        # each cell's positions: the start of its holes' joint rows plus
        # each column of its own rows, in its vector order; a joint row is
        # at least as wide, so a cell's pads are the first of the joint's
        joint.cells = [
            (lay, np.array([joint.spans[c * lay.size + h].start + i
                            for g in lay.groups for h in g.holes
                            for i in range(g.width)], dtype=np.intp))
            for c, lay in enumerate(layouts)]
        return joint

    def vector_of(self, gradients):
        """``gradients`` as one vector in this layout's order, 0.0 at the
        pads.

        ``gradients`` is one array per hole, in hole order, each of its
        hole's parameter count (else ``ValueError``), or already such a
        vector.
        """
        if (isinstance(gradients, np.ndarray)
                and gradients.shape == self.hole_of.shape):
            return gradients
        if ([np.size(g) for g in gradients]
                != [span.stop - span.start for span in self.spans]):
            raise ValueError("gradient layout does not match params layout")
        vector = np.zeros(self.hole_of.size)
        for span, gradient in zip(self.spans, gradients):
            vector[span] = np.ravel(gradient)
        return vector

    def per_hole(self, vector):
        """The per-hole parts of a vector in this layout's order, in hole
        order, as views of it."""
        return [vector[span] for span in self.spans]


class DrawPlan:
    """The ``lam`` draws per hole of one layout's states, set up once.

    ``rngs`` holds one ``Generator`` per cell of the layout, else
    ``ValueError``; cell ``c`` reads ``rngs[c]``.  Each distinct
    ``Generator`` object is drawn from once per draw, by the first cell
    that reads it: each of that cell's holes has its ``Generator`` method
    bound to one row of a buffer of drawn rows, and the calls run in hole
    order, so the stream is read as one call per hole of a one-cell state
    reads it.  One ``take`` then copies each drawn row to its hole's row,
    in group order, of every cell that reads that ``Generator``; where no
    ``Generator`` is shared, that is each drawn row to one noise row.  So
    a cell that shares a ``Generator`` gets the rows it would get alone
    from a ``Generator`` in the same state; such cells must draw the same
    sequence of uniforms and normals, else ``ValueError``.

    Every categorical hole is drawn at once.  The plan keeps one table of
    cumulative probabilities, a column per hole in group order and one
    row fewer than the widest categorical row: each categorical group
    writes the cumulative sums of the first width - 1 entries of each of
    its rows into the hole's column, and then sets the sums that end in a
    pad back to ``+inf``, which no uniform exceeds, so each hole keeps the
    first K - 1 sums of its own K.  Every other entry stays ``+inf``.  One
    compare and one count over the table then give every hole's category:
    how many of its sums lie below its uniform, which is
    ``searchsorted(cumsum(p), u, side="left")`` capped at K - 1, even
    where the K sums round below 1; a uniform equal to a sum takes the
    lower category.  This is the only inverse-CDF sampler of categories.
    The other groups then overwrite their rows of the draws with their
    blocks' draws.
    """

    def __init__(self, layout, rngs, lam):
        if len(rngs) != layout.cell_count:
            raise ValueError(f"{len(rngs)} Generators for "
                             f"{layout.cell_count} cells")
        self.layout, self.lam = layout, lam
        self.noise = np.empty((layout.size, lam))
        holes = [[] for _ in rngs]  # per cell: its (draw, row) in hole order
        for draw, row, cell in layout.draws:
            holes[cell].append((draw, row))
        # per Generator, by identity: its first cell and first drawn row;
        # per drawn row: its Generator and draw; per noise row: its drawn row
        firsts, drawn = {}, []
        self.source = np.empty(layout.size, dtype=np.intp)
        for cell, rng in enumerate(rngs):
            if id(rng) not in firsts:
                firsts[id(rng)] = (cell, len(drawn))
                drawn += [(rng, draw) for draw, _ in holes[cell]]
            first, start = firsts[id(rng)]
            if [d for d, _ in holes[cell]] != [d for d, _ in holes[first]]:
                raise ValueError(f"cells {first} and {cell} share a Generator"
                                 " but draw different sequences")
            for j, (_, row) in enumerate(holes[cell]):
                self.source[row] = start + j
        self.drawn = np.empty((len(drawn), lam))
        # positional (size, dtype, out): cheaper to call than a keyword
        self.calls = [partial(getattr(rng, draw), None, np.float64, out)
                      for (rng, draw), out in zip(drawn, self.drawn)]
        groups = list(enumerate(layout.groups))
        categorical = [(i, g) for i, g in groups
                       if issubclass(g.block_type, CategoricalBlock)]
        sums_per_hole = max([g.width for _, g in categorical], default=1) - 1
        self.cum = np.full((sums_per_hole, layout.size), np.inf)
        # per categorical group, by index: its part of the table, as an
        # (m, width - 1) view, and the floor that sets its pads' sums back
        # to +inf, -inf elsewhere (None where no row has pads); per other
        # group: its rows
        self.fills = [(i, self.cum[:g.width - 1, g.rows].T,
                       None if g.real is None
                       else np.where(g.real[:, 1:] == 0.0, np.inf, -np.inf))
                      for i, g in categorical]
        self.others = [(i, g.rows) for i, g in groups
                       if not issubclass(g.block_type, CategoricalBlock)]

    def sample(self, blocks):
        """The draws of the state whose blocks are ``blocks``: a fresh
        ``(holes, lam)`` float64 matrix in group order."""
        for call in self.calls:
            call()
        # every source row is in range; "clip" skips the buffered copy that
        # the default mode makes of ``out``
        self.drawn.take(self.source, axis=0, out=self.noise, mode="clip")
        for i, cum, floor in self.fills:
            np.add.accumulate(blocks[i].p[:, :-1], axis=1, out=cum)
            if floor is not None:
                np.maximum(cum, floor, out=cum)
        samples = np.add.reduce(self.cum[:, :, None] < self.noise, axis=0,
                                dtype=np.float64)
        for i, rows in self.others:
            samples[rows] = blocks[i].sample(self.noise[rows])
        return samples


class ParamState:
    """Every hole's parameters in one float64 vector, grouped by block
    type (see :func:`_group_key`), with a hole narrower than its group
    padded to its group's widest row (see :class:`_Layout`).  In this
    group order the groups come in the order of their first holes, and
    the holes of a group in hole order; the state's draws come in it too.

    A state stands wherever a params-set (a list of per-hole
    distributions) is read: ``len``, indexing and iteration give per-hole
    distributions, as copies.  :meth:`of` builds one from a params-set.
    A state may hold several cells: :meth:`joined` puts one-cell states
    side by side, cell after cell in hole order, and :meth:`cell` takes
    one out again.
    """

    # every step makes a new state: no instance dict to make with it
    __slots__ = ("layout", "vector", "_blocks")

    def __init__(self, layout, vector):
        self.layout = layout
        self.vector = vector
        self._blocks = None

    @property
    def blocks(self):
        """One block per group, each a view of the vector; made on first
        use."""
        if self._blocks is None:
            self._blocks = [
                g.block_type(self.vector[g.start:g.stop].reshape(-1, g.width))
                for g in self.layout.groups]
        return self._blocks

    @classmethod
    def of(cls, params_set):
        """``params_set`` if it is a state, else a one-cell state holding a
        copy of each distribution's parameters."""
        if isinstance(params_set, ParamState):
            return params_set
        blocks = [p._block() for p in params_set]
        layout = _Layout([(type(b), b.values.shape[1]) for b in blocks])
        vector = layout.padding.copy()
        for span, block in zip(layout.spans, blocks):
            vector[span] = block.values[0]
        return cls(layout, vector)

    @classmethod
    def joined(cls, states):
        """One state whose cells are the one-cell ``states``, in order;
        they must have as many holes each, else ``ValueError``."""
        layout = _Layout.joined([s.layout for s in states])
        vector = layout.padding.copy()
        for state, (_, positions) in zip(states, layout.cells):
            vector[positions] = state.vector
        return cls(layout, vector)

    def cell(self, c):
        """Cell ``c`` as a one-cell state: a copy of its parameters in its
        own layout."""
        layout, positions = self.layout.cells[c]
        return ParamState(layout, self.vector[positions])

    def __len__(self):
        return self.layout.size

    def __getitem__(self, hole):
        return self.params()[hole]

    def __iter__(self):
        return iter(self.params())

    def _per_group(self, rows_of):
        """A per-hole list of the rows ``rows_of(group, block)`` gives."""
        out = [None] * len(self)
        for group, block in zip(self.layout.groups, self.blocks):
            for hole, row in zip(group.holes, rows_of(group, block)):
                out[hole] = row
        return out

    def params(self):
        """The per-hole distributions, as copies, in hole order."""
        return [block_type.distribution(self.vector[span])
                for (block_type, _), span in zip(self.layout.keys,
                                                 self.layout.spans)]

    def stepped(self, gradient, eta, hole_ids=None):
        """The state after the ascent step ``theta + eta * gradient`` and
        the projections, checked by :func:`_check_finite`, which names
        holes by ``hole_ids``.  ``gradient`` is one vector in this state's
        order and ``eta`` one learning rate or one per position."""
        layout = self.layout
        vector = self.vector + eta * gradient
        for g in layout.projected:
            g.block_type.project(vector[g.start:g.stop].reshape(-1, g.width),
                                 g.real)
        return _check_finite(ParamState(layout, vector), hole_ids)

    def entropies(self):
        """Entropy per hole in nats, in hole order."""
        return self._per_group(lambda g, b: b.entropy().tolist())

    def greedy(self):
        """Modal value per hole (category index, 0/1 or Gaussian mean)."""
        return self._per_group(lambda g, b: b.greedy())


class DivergenceError(FloatingPointError):
    """A step left hole ``hole`` of ``state``, the stepped state, out of
    bounds.  Raised by :func:`disnes.optimizer.train`, it holds the pairs
    of the cells that finished before the diverging one as ``finished``."""

    def __init__(self, message, hole, state):
        super().__init__(message)
        self.hole, self.state, self.finished = hole, state, []


def _check_finite(state, hole_ids=None):
    """``state``, or :class:`DivergenceError` naming the first hole, in
    hole order, with a parameter out of its bounds (see :class:`_Block`).
    ``hole_ids`` are the ids of one cell's holes, so hole ``h`` of a state
    of several cells is ``hole_ids[h % len(hole_ids)]``.  The message
    calls the parameters non-finite if one is NaN or infinite (out of any
    bounds), else out-of-range."""
    vector = state.vector
    ok = vector >= state.layout.lower
    ok &= vector <= state.layout.upper
    if not np.logical_and.reduce(ok):
        hole = int(state.layout.hole_of[~ok].min())
        name = hole_ids[hole % len(hole_ids)] if hole_ids else hole
        finite = np.isfinite(vector[state.layout.spans[hole]]).all()
        fault = "out-of-range" if finite else "non-finite"
        raise DivergenceError(
            f"{fault} parameters for hole {name!r} after update: "
            f"{state[hole]}", hole, state)
    return state
