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
:class:`GaussianBlock`): sampling, log-probability, the score (gradient of
the log-probability), a Fisher-preconditioned "natural" score, the
gradient of the probability itself, entropy, greedy decode and the
projection after a step.  A block holds ``m`` holes of one family (and,
for categoricals, one K and mode) as an ``(m, width)`` array, one row per
hole; samples are ``(m, n)`` and gradients come back ``(m, n, width)``.

:class:`ParamState` keeps every hole's parameters in one float64 vector.
Holes are grouped by (family, K, mode); the vector holds one group after
the other, so each group's block is a reshaped slice of it and a training
step is one NumPy operation per group, not per hole.  A state may hold
several cells (independent training runs, each with its own learning rate
and ``Generator``), one after the other in hole order; every formula works
row by row, so a cell's numbers do not depend on the cells beside it.

The per-hole classes (:class:`BernoulliParams`, :class:`CategoricalParams`,
:class:`GaussianParams`), the API for single distributions, are one-row
views of their family's block: their methods, written once on
:class:`_Distribution`, run the block formulas on a one-row block, and
``stepped`` is the checked step of a one-hole state (see
:meth:`ParamState.stepped`).  Per-sample methods accept a single sample or
a 1-D array of samples; in the array case gradients come back as
``(n, width)`` with one row per sample.  Each class names its family,
checks its fields and gives its params-snapshot fields; :data:`FAMILIES`
maps the names back to them.

Random draws read the stream in hole order: each Bernoulli or categorical
hole takes ``n`` uniforms and each Gaussian hole ``n`` standard normals.
A state's draws come as one ``(holes, n)`` float64 matrix in its group
order (see :class:`ParamState`), so a group's samples are one slice of
it.  A run of holes of one cell with the same draw type, each next to the
last both in hole order and in group order, shares one ``Generator``
call (bound once by a :class:`DrawPlan`), which reads the stream exactly
as one call per hole would.  Each cell draws from its own generator, so
a state, each of its cells and its per-hole distributions draw the same
samples from the same seeds.

All operations are pure given ``(params, rng)``; callers that run
concurrently must each own a distinct ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np

# Probability floor applied after every parameter update; keeps scores and
# Fisher terms finite.
EPS = 1e-6

# Largest log sigma whose sigma = exp(log sigma) is a finite float, and
# smallest whose sigma is a positive normal float; the largest finite f32.
LOG_SIGMA_MAX = math.log(sys.float_info.max)
LOG_SIGMA_MIN = math.log(sys.float_info.min)
F32_MAX = float(np.finfo(np.float32).max)

LOGITS = "logits"
PROBS = "probs"


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
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# --- Block formulas ---------------------------------------------------------

class _Block:
    """``m`` holes of one family as an ``(m, width)`` array ``values``.

    A block is read-only: quantities derived from ``values`` are computed
    once, on first use.  :meth:`project` acts on a values array before a
    block is made of it.  ``lower`` and ``upper`` bound every column or
    each column (default: any finite value); a step out of them diverges.
    ``discrete`` tells whether samples are category indices.
    """

    lower, upper = -sys.float_info.max, sys.float_info.max
    discrete = True

    def __init__(self, values, mode=None):
        self.values = values
        self.mode = mode


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
    def project(values, mode):
        """Clamp theta to ``[EPS, 1 - EPS]``, in place."""
        _clip(values)

    def distribution(self, row):
        return _unchecked(BernoulliParams, theta=float(self.values[row, 0]))


def _clip(values):
    """``np.clip(values, EPS, 1 - EPS)`` in place, NaN kept, without the
    Python layer of ``np.clip``."""
    np.maximum(values, EPS, out=values)
    np.minimum(values, 1.0 - EPS, out=values)


class CategoricalBlock(_Block):
    """Categorical holes of one K and mode: K columns of logits or
    probabilities.  The per-sample formulas work on ``(m, K, n)`` arrays,
    so the inner axis is the population, and return the ``(m, n, K)``
    layout."""

    draw = "random"

    @cached_property
    def p(self):
        """The probabilities, one row per hole."""
        return self.values if self.mode == PROBS else _softmax(self.values)

    def sample(self, u):
        """Inverse-CDF sampling; boundary ties break toward the lower index.

        The category is the count of cumulative probabilities below the
        uniform, which is ``searchsorted(cum, u, side="left")`` capped at
        K - 1.  The cumulative sums never decrease, so counting over the
        first K - 1 of them is that cap.
        """
        cum = np.add.accumulate(self.p, axis=1)[:, :-1]
        return np.add.reduce(cum[:, :, None] < u[:, None, :], axis=1,
                             dtype=np.int64)

    def _onehot(self, x):
        return x[:, None, :] == _categories(self.values.shape[1])

    def log_prob(self, x):
        return np.take_along_axis(np.log(self.p), x.astype(np.int64), axis=1)

    def _score(self, x):
        if self.mode == LOGITS:
            return self._onehot(x) - self.p[:, :, None]
        return self._onehot(x) / self.values[:, :, None]

    def score(self, x):
        """LOGITS: ``onehot(x) - p``; PROBS: ``onehot(x) / p``."""
        return _by_sample(self._score(x))

    def natural_score(self, x):
        """Probability-space natural score: ``p_i * (onehot(x)_i - p_i)``."""
        p = self.p[:, :, None]
        return _by_sample(p * (self._onehot(x) - p))

    def prob_gradient(self, x):
        p_x = np.take_along_axis(self.p, x.astype(np.int64), axis=1)
        return _by_sample(p_x[:, None, :] * self._score(x))

    def entropy(self):
        """Entropy per hole, taking 0 * log 0 as 0: a softmax can underflow
        to a zero probability."""
        p = self.p
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = p * np.log(p)
        terms[p == 0.0] = 0.0
        return -terms.sum(axis=1)

    def greedy(self):
        """Modal categories; ties break toward the lower index."""
        return np.argmax(self.p, axis=1).tolist()

    @staticmethod
    def project(values, mode):
        """PROBS: clamp to ``[EPS, 1 - EPS]`` and renormalize, in place."""
        if mode == PROBS:
            _clip(values)
            values /= values.sum(axis=1, keepdims=True)

    def distribution(self, row):
        return _unchecked(CategoricalParams, values=self.values[row].copy(),
                          mode=self.mode)


@lru_cache(maxsize=None)
def _categories(k):
    """The category indices as a ``(K, 1)`` float column."""
    column = np.arange(k, dtype=np.float64)[:, None]
    column.flags.writeable = False
    return column


def _by_sample(rows):
    """An ``(m, K, n)`` array laid out as a C-ordered ``(m, n, K)`` one."""
    return rows.transpose(0, 2, 1).copy()


class GaussianBlock(_Block):
    """Gaussian holes: two columns, ``mu`` and ``log_sigma``."""

    draw = "standard_normal"
    discrete = False
    # mu must stay a finite f32 (a decoded program writes it as an f32
    # literal), sigma a finite, positive normal float
    lower = (-F32_MAX, LOG_SIGMA_MIN)
    upper = (F32_MAX, LOG_SIGMA_MAX)

    @cached_property
    def sigma(self):
        # scalar libm exp: np.exp may differ from math.exp in the last bit
        return np.array([math.exp(s)
                         for s in self.values[:, 1].tolist()])[:, None]

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
        z = (x - self.values[:, :1]) / self.sigma
        g = np.empty(x.shape + (2,))
        g[..., 0] = x - self.values[:, :1]
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
    def project(values, mode):
        """Gaussian parameters are not projected, only bounded."""

    def distribution(self, row):
        return _unchecked(GaussianParams, mu=float(self.values[row, 0]),
                          log_sigma=float(self.values[row, 1]))


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
        """``size`` draws, or with ``size=None`` one int (float: Gaussian)."""
        block = self._block()
        noise = getattr(rng, block.draw)((1, 1 if size is None else size))
        x = block.sample(noise)[0]
        if size is not None:
            return x
        return int(x[0]) if block.discrete else float(x[0])

    log_prob = _one_row("log_prob")
    score = _one_row("score")
    natural_score = _one_row("natural_score")
    prob_gradient = _one_row("prob_gradient")

    def entropy(self):
        return float(self._block().entropy()[0])

    def stepped(self, gradient, eta):
        """The step of a one-hole state (see :meth:`ParamState.stepped`):
        a divergent step raises :class:`DivergenceError` naming hole 0."""
        return ParamState.of([self]).stepped([gradient], eta)[0]

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

    ``mode=LOGITS`` stores unconstrained logits (probabilities via softmax);
    ``mode=PROBS`` stores the probability vector directly.  The score
    depends on the mode:

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

    def snapshot(self):
        return {"mode": self.mode, "values": self.values.tolist()}

    def _block(self):
        return CategoricalBlock(self.values[None, :], self.mode)

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

class _Group:
    """The holes of one (family, K, mode): positions ``start:stop`` of the
    vector, and ``rows`` of a per-hole array in group order (the holes of
    one group after the other)."""

    def __init__(self, block_type, width, mode, holes, start, first):
        self.block_type, self.width, self.mode = block_type, width, mode
        self.holes = tuple(holes)
        self.start, self.stop = start, start + width * len(holes)
        self.rows = slice(first, first + len(holes))


class _Layout:
    """Where each hole's parameters sit in the vector; shared by every
    state stepped from the same params-set.

    ``keys`` gives each hole's (block type, width, mode) in hole order and
    ``cell_of_hole`` its cell, out of ``cell_count`` (default: one cell).
    """

    def __init__(self, keys, cell_of_hole=None, cell_count=1):
        self.keys, self.size, self.cell_count = keys, len(keys), cell_count
        cells = np.zeros(self.size, dtype=np.intp) if cell_of_hole is None \
            else np.array(cell_of_hole, dtype=np.intp)
        by_key = {}
        for hole, key in enumerate(keys):
            by_key.setdefault(key, []).append(hole)
        self.groups, start, first = [], 0, 0
        for (block_type, width, mode), holes in by_key.items():
            self.groups.append(
                _Group(block_type, width, mode, holes, start, first))
            start, first = self.groups[-1].stop, first + len(holes)
        # group order: the holes of one group after the other; the cell
        # of each row, and the row of each hole
        grouped = [h for g in self.groups for h in g.holes]
        self.grouped_cells = cells[grouped]
        row_of = np.empty(self.size, dtype=np.intp)
        row_of[grouped] = np.arange(self.size)
        # (program hole, cell) -> its row; each cell holds one program's
        # holes
        self.member_rows = row_of.reshape(cell_count, -1).T
        self.widths = [width for _, width, _ in keys]  # hole order
        # vector position -> its hole, and -> its position in the
        # hole-order concatenation of per-hole arrays
        offset = np.cumsum([0] + self.widths)
        self.hole_of = np.array([h for g in self.groups for h in g.holes
                                 for _ in range(g.width)], dtype=np.intp)
        self.order = np.array([offset[h] + i for g in self.groups
                               for h in g.holes for i in range(g.width)],
                              dtype=np.intp)
        self.cell_of = cells[self.hole_of]  # vector position -> its cell
        # vector position -> its bounds (see _Block)
        self.lower, self.upper = np.empty((2, self.hole_of.size))
        for g in self.groups:
            size = g.stop - g.start
            self.lower[g.start:g.stop] = np.resize(g.block_type.lower, size)
            self.upper[g.start:g.stop] = np.resize(g.block_type.upper, size)
        # hole -> its slice of the vector, and whether it draws categories
        self.spans = [None] * self.size
        for g in self.groups:
            for j, hole in enumerate(g.holes):
                start = g.start + j * g.width
                self.spans[hole] = slice(start, start + g.width)
        self.discrete = [block_type.discrete for block_type, _, _ in keys]
        # runs of holes of one cell with the same draw type, each hole
        # next to the last in hole order and in group order, in hole
        # order: [draw, first row, stop row, cell]
        self.runs = []
        for (block_type, _, _), cell, row in zip(keys, cells.tolist(),
                                                 row_of.tolist()):
            run = self.runs[-1] if self.runs else None
            if run and run[0] == block_type.draw and run[3] == cell \
                    and run[2] == row:
                run[2] = row + 1
            else:
                self.runs.append([block_type.draw, row, row + 1, cell])
        # per cell: its one-cell layout, and the positions in this vector
        # of that layout's vector
        self.cells = [(self, np.arange(self.hole_of.size))]

    @classmethod
    def joined(cls, layouts):
        """The one-cell ``layouts`` side by side, one cell each."""
        joint = cls([key for lay in layouts for key in lay.keys],
                    [c for c, lay in enumerate(layouts) for _ in lay.keys],
                    len(layouts))
        position = np.empty_like(joint.order)  # hole-order index -> position
        position[joint.order] = np.arange(joint.order.size)
        offsets = np.cumsum([0] + [lay.order.size for lay in layouts])
        joint.cells = [(lay, position[offset + lay.order])
                       for lay, offset in zip(layouts, offsets)]
        return joint

    def vector_of(self, gradients):
        """``gradients`` as one vector in this layout's order.

        ``gradients`` is one array per hole, in hole order, each of its
        hole's parameter count (else ``ValueError``), or already such a
        vector.
        """
        if (isinstance(gradients, np.ndarray)
                and gradients.shape == self.hole_of.shape):
            return gradients
        if [np.asarray(g).size for g in gradients] != self.widths:
            raise ValueError("gradient layout does not match params layout")
        return np.concatenate(gradients, axis=None)[self.order]

    def per_hole(self, vector):
        """The per-hole parts of a vector in this layout's order, in hole
        order, as views of it."""
        return [vector[span] for span in self.spans]

    def rates_of(self, eta):
        """One learning rate, one per cell or one per vector position, as
        what a step multiplies each position by."""
        if not np.ndim(eta):
            return eta
        eta = np.asarray(eta, dtype=np.float64)
        # a layout with as many cells as positions has one position a cell
        return eta if eta.size == self.cell_of.size else eta[self.cell_of]


class DrawPlan:
    """The ``lam`` draws per hole of one layout's states, set up once.

    Each run of holes (see :class:`_Layout`) has its ``Generator`` method
    bound to the run's rows of one noise buffer in group order, which
    every draw overwrites; cell ``c`` draws from ``rngs[c]``.  The calls
    read the stream in hole order, as one call per hole would, so the
    draws do not depend on the plan.
    """

    def __init__(self, layout, rngs, lam):
        self.layout, self.lam = layout, lam
        self.noise = np.empty((layout.size, lam))
        # positional (size, dtype, out): cheaper to call than a keyword
        self.calls = [partial(getattr(rngs[cell], draw), None, np.float64,
                              self.noise[start:stop])
                      for draw, start, stop, cell in layout.runs]

    def sample(self, blocks):
        """The draws of the state whose blocks are ``blocks``: a fresh
        ``(holes, lam)`` float64 matrix in group order."""
        for call in self.calls:
            call()
        samples = np.empty_like(self.noise)
        for group, block in zip(self.layout.groups, blocks):
            samples[group.rows] = block.sample(self.noise[group.rows])
        return samples


class ParamState:
    """Every hole's parameters in one float64 vector, grouped by
    (family, K, mode).  In this group order the groups come in the order
    of their first holes, and the holes of a group in hole order; the
    state's draws come in it too.

    A state stands wherever a params-set (a list of per-hole
    distributions) is read: ``len``, indexing and iteration give per-hole
    distributions, as copies.  :meth:`of` builds one from a params-set.
    A state may hold several cells: :meth:`joined` puts one-cell states
    side by side, cell after cell in hole order, and :meth:`cell` takes
    one out again.
    """

    # snapshots of a long run are kept by the thousand: no instance dict
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
                g.block_type(self.vector[g.start:g.stop].reshape(-1, g.width),
                             g.mode)
                for g in self.layout.groups]
        return self._blocks

    @classmethod
    def of(cls, params_set):
        """``params_set`` if it is a state, else a one-cell state holding a
        copy of each distribution's parameters."""
        if isinstance(params_set, ParamState):
            return params_set
        blocks = [p._block() for p in params_set]
        layout = _Layout([(type(b), b.values.shape[1], b.mode)
                          for b in blocks])
        vector = np.empty(layout.hole_of.size)
        for group in layout.groups:
            vector[group.start:group.stop] = np.concatenate(
                [blocks[h].values[0] for h in group.holes])
        return cls(layout, vector)

    @classmethod
    def joined(cls, states):
        """One state whose cells are the one-cell ``states``, in order."""
        layout = _Layout.joined([s.layout for s in states])
        vector = np.empty(layout.hole_of.size)
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
        return self._per_group(
            lambda g, b: [b.distribution(j) for j in range(len(g.holes))])

    def stepped(self, gradient, eta, hole_ids=None):
        """The state after the ascent step ``theta + eta * gradient`` and
        each family's projection, checked by :func:`_check_finite`, which
        names holes by ``hole_ids``.  See :meth:`_Layout.vector_of` and
        :meth:`_Layout.rates_of` for the forms of ``gradient`` and ``eta``."""
        layout = self.layout
        eta, gradient = layout.rates_of(eta), layout.vector_of(gradient)
        vector = self.vector + eta * gradient
        for g in layout.groups:
            g.block_type.project(
                vector[g.start:g.stop].reshape(-1, g.width), g.mode)
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
    The message calls them non-finite if one is NaN or infinite (out of
    any bounds), else out-of-range."""
    vector = state.vector
    ok = vector >= state.layout.lower
    ok &= vector <= state.layout.upper
    if not ok.all():
        hole = int(state.layout.hole_of[~ok].min())
        name = hole_ids[hole] if hole_ids else hole
        finite = np.isfinite(vector[state.layout.spans[hole]]).all()
        fault = "out-of-range" if finite else "non-finite"
        raise DivergenceError(
            f"{fault} parameters for hole {name!r} after update: "
            f"{state[hole]}", hole, state)
    return state
