"""The flat parameter state against a per-hole reference, bit for bit.

The reference below is the per-hole arithmetic of a training step written
out one hole at a time: one ``Generator`` call, one weight matrix, one
weighted sum and one projected step per hole.  It lives only here.  The
state groups holes by block type, pads each categorical row to its group's
widest with zero-probability categories, and makes one ``Generator`` call
per hole of each distinct generator, whose rows every cell that shares
it reads; the sample matrix (in group order), the
gradient vector, every per-hole gradient, stepped parameter, entropy and
greedy value must still equal the reference's bit for bit, the pads must
hold their values, and the rng must end in the same state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disnes import estimator as est, harness
from disnes.distributions import (
    EPS, LOGITS, PROBS, BernoulliBlock, BernoulliParams, CategoricalBlock,
    CategoricalParams, DrawPlan, GaussianBlock, GaussianParams, ParamState,
    ProbsBlock,
)
from disnes.optimizer import (
    TrainConfig, _transform_for, greedy_decode, initial_params, sgd_step,
)
from disnes.sketch import SketchProblem, parse

# --- the per-hole reference ------------------------------------------------


def ref_probs(p):
    if p.mode == PROBS:
        return p.values.copy()
    z = p.values - p.values.max()
    e = np.exp(z)
    return e / e.sum()


def ref_sample(p, rng, n):
    if isinstance(p, BernoulliParams):
        return (rng.random(n) < p.theta).astype(np.int64)
    if isinstance(p, CategoricalParams):
        cum = np.cumsum(ref_probs(p))
        idx = np.searchsorted(cum, rng.random(n), side="left")
        return np.minimum(idx, p.k - 1)
    return p.mu + math.exp(p.log_sigma) * rng.standard_normal(n)


def ref_weights(p, xs, kind):
    """(n, width) weights of one hole for samples ``xs`` (float64)."""
    if isinstance(p, BernoulliParams):
        t = p.theta
        search = ((xs - t) / (t * (1.0 - t)))[:, None]
        if kind == est.SEARCH:
            return search
        if kind == est.NATURAL:
            return (xs - t)[:, None]
        return np.where(xs > 0.5, t, 1.0 - t)[:, None] * search
    if isinstance(p, CategoricalParams):
        probs = ref_probs(p)
        onehot = np.eye(p.k)[xs.astype(np.int64)]
        if p.mode == LOGITS:
            search = onehot - probs[None, :]
        else:
            search = onehot / p.values[None, :]
        if kind == est.SEARCH:
            return search
        if kind == est.NATURAL:
            return probs[None, :] * (onehot - probs[None, :])
        return probs[xs.astype(np.int64)][:, None] * search
    sigma = math.exp(p.log_sigma)
    z = (xs - p.mu) / sigma
    g = np.empty((xs.size, 2))
    if kind == est.NATURAL:
        g[:, 0] = xs - p.mu
        g[:, 1] = 0.5 * (z * z - 1.0)
        return g
    g[:, 0] = z / sigma
    g[:, 1] = z * z - 1.0
    if kind == est.SEARCH:
        return g
    log_p = -0.5 * z * z - p.log_sigma - 0.5 * math.log(2.0 * math.pi)
    return np.exp(log_p)[:, None] * g


def ref_estimate(params_set, fitness, lam, rng, kinds, transform=None):
    draws = [ref_sample(p, rng, lam) for p in params_set]
    fits = fitness.population(draws)
    weights = fits if transform is None else transform(fits)
    grads = [weights @ ref_weights(p, np.asarray(x, dtype=np.float64), k)
             / lam for p, x, k in zip(params_set, draws, kinds)]
    return draws, fits, grads


def ref_step(p, g, eta):
    """The stepped parameters of one hole, as a float64 vector."""
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    if isinstance(p, BernoulliParams):
        theta = p.theta + eta * float(g[0])
        return np.array([float(np.clip(theta, EPS, 1.0 - EPS))])
    if isinstance(p, CategoricalParams):
        values = p.values + eta * g
        if p.mode == PROBS:
            values = np.clip(values, EPS, 1.0 - EPS)
            values = values / values.sum()
        return values
    return np.array([p.mu + eta * float(g[0]), p.log_sigma + eta * float(g[1])])


def ref_entropy(p):
    if isinstance(p, BernoulliParams):
        t = p.theta
        return -(t * math.log(t) + (1.0 - t) * math.log(1.0 - t))
    if isinstance(p, CategoricalParams):
        probs = ref_probs(p)
        return float(-(probs * np.log(probs)).sum())
    return 0.5 * math.log(2.0 * math.pi * math.e) + p.log_sigma


def ref_greedy(p):
    if isinstance(p, BernoulliParams):
        return 1 if p.theta >= 0.5 else 0
    if isinstance(p, CategoricalParams):
        return int(np.argmax(ref_probs(p)))
    return p.mu


# --- fixtures ----------------------------------------------------------------

def vector_of(p):
    if isinstance(p, BernoulliParams):
        return np.array([p.theta])
    if isinstance(p, CategoricalParams):
        return p.values
    return np.array([p.mu, p.log_sigma])


def make_params(codes, rng):
    """One distribution per code: B, G, or L/P (logits/probs) plus K."""
    params = []
    for code in codes:
        if code == "B":
            params.append(BernoulliParams(rng.uniform(0.05, 0.95)))
        elif code == "G":
            params.append(GaussianParams(rng.normal(), rng.uniform(-1, 1)))
        elif code[0] == "L":
            params.append(CategoricalParams(rng.normal(size=int(code[1:])),
                                            mode=LOGITS))
        else:
            probs = np.clip(rng.dirichlet(np.ones(int(code[1:]))), 0.01, None)
            params.append(CategoricalParams(probs / probs.sum(), mode=PROBS))
    return params


class Fitness:
    """A fitness with varied, mostly distinct values over the draws."""

    def __init__(self, n):
        self.coef = np.linspace(0.3, 1.7, n)

    def population(self, draws):
        total = sum(c * np.asarray(d, dtype=np.float64)
                    for c, d in zip(self.coef, draws))
        return np.sin(total) - 0.1 * total


def ref_key(p):
    """A hole's group: its family and mode, and its width's class.  Rows
    2 or 3 wide share a group, and so do rows 4 to 7 wide; each wider
    width has its own."""
    k = vector_of(p).size
    return type(p), getattr(p, "mode", None), k // 4 if k <= 7 else k


def ref_grouped(params, per_hole):
    """Per-hole items in a state's group order: holes grouped by
    ``ref_key`` in order of first appearance, in hole order within a
    group."""
    return [x for k in dict.fromkeys(map(ref_key, params))
            for p, x in zip(params, per_hole) if ref_key(p) == k]


def param_pad(p):
    """A pad's value among the parameters of ``p``'s group."""
    return -math.inf if getattr(p, "mode", None) == LOGITS else 0.0


def ref_vector(params, per_hole, pad=lambda p: 0.0):
    """Per-hole arrays laid out as a state's vector: each hole's row
    filled to its group's widest with ``pad(p)`` (by default 0.0, as in a
    gradient)."""
    width = {}
    for p in params:
        width[ref_key(p)] = max(width.get(ref_key(p), 0), vector_of(p).size)
    rows = []
    for p, x in zip(ref_grouped(params, params), ref_grouped(params, per_hole)):
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        rows += [x, np.full(width[ref_key(p)] - x.size, pad(p))]
    return np.concatenate(rows)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


ORDERS = {
    "G,C,C,G,B,C": ["G", "L6", "L4", "G", "B", "P6"],
    "main-nes": ["P6", "G", "G", "P4", "P4", "G"],
    "main-vo": ["L6", "G", "G", "L4", "L4", "G"],
    "bernoulli-run": ["B", "B", "B", "G", "B"],
    "every-family": ["P2", "L2", "P4", "L4", "P6", "L6", "B", "G"],
    "one-hole": ["G"],
    # padded rows of every width up to 7 and unpadded ones from 8
    "mixed-K": ["L2", "P4", "L6", "P3", "L7", "P2", "L3", "P7", "L4", "P6"],
    "wide-K": ["L9", "P12", "L4", "P8", "L8", "L9", "P7", "P12", "G"],
}


def check_against_reference(cell_codes, seed, lam, cell_kinds, etas=(0.37,),
                            streams=None):
    """One estimate and step of the state joining one cell per entry of
    ``cell_codes`` against the per-hole reference run for each cell alone.
    Cell ``c`` draws from the generator of seed ``seed + streams[c]``
    (default: ``seed + c``), one generator object per seed, which cells
    of one seed share."""
    cell_params = [make_params(codes, np.random.default_rng(seed + c))
                   for c, codes in enumerate(cell_codes)]
    params = [p for cell in cell_params for p in cell]
    state = ParamState.of(params, len(cell_codes))
    fitness = Fitness(len(cell_codes[0]))
    transform = _transform_for("standardize")

    seeds = [seed + c for c in streams or range(len(cell_codes))]
    by_seed = {s: np.random.default_rng(s) for s in seeds}
    rngs = [by_seed[s] for s in seeds]
    ref_rngs = [np.random.default_rng(s) for s in seeds]
    recorded = []
    sample_population = est.sample_population

    def recording(*args):
        recorded.append(sample_population(*args))
        return recorded[-1]

    est.sample_population = recording
    try:
        estimate = est.estimate_gradient(
            state, fitness, lam, rngs[0] if len(rngs) == 1 else rngs,
            [k for cell, kinds in zip(cell_params, cell_kinds)
             for k in est._resolve_kinds(kinds, len(cell))],
            fitness_transform=transform)
    finally:
        est.sample_population = sample_population
    draws, fits, grads = [], [], []
    for cell, kinds, ref_rng in zip(cell_params, cell_kinds, ref_rngs):
        d, f, g = ref_estimate(cell, fitness, lam, ref_rng,
                               est._resolve_kinds(kinds, len(cell)),
                               transform)
        draws += d
        fits.append(f)
        grads += g
    fits = np.concatenate(fits)
    for rng, ref_rng in zip(rngs, ref_rngs):
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    [samples] = recorded
    assert_same_bits(samples,
                     np.array(ref_grouped(params, draws), dtype=np.float64))
    assert_same_bits(estimate.fitnesses, fits)
    for cell_fits in fits.reshape(len(cell_codes), lam):
        assert est.mean(cell_fits) == cell_fits.mean()
    assert_same_bits(estimate.vector, ref_vector(params, grads))
    assert len(estimate.gradients) == len(params)
    for got, want in zip(estimate.gradients, grads):
        assert_same_bits(got, want)

    # each cell's learning rate, at each of its vector positions
    rates = np.array(etas)[state.layout.cell_of]
    stepped = sgd_step(state, estimate.gradients, rates)
    cell_eta = [eta for cell, eta in zip(cell_params, etas) for _ in cell]
    want = [ref_step(p, g, eta) for p, g, eta in zip(params, grads, cell_eta)]
    assert_same_bits(stepped.vector, ref_vector(params, want, param_pad))
    for q, w in zip(stepped, want):
        assert_same_bits(vector_of(q), w)
    assert_same_bits(sgd_step(state, estimate.vector, rates).vector,
                     stepped.vector)
    if len(etas) == 1:  # one rate for every position steps alike
        assert_same_bits(sgd_step(state, estimate.vector, etas[0]).vector,
                         stepped.vector)
    assert stepped.entropies() == [ref_entropy(q) for q in stepped]
    assert greedy_decode(stepped) == [ref_greedy(q) for q in stepped]
    assert state.entropies() == [ref_entropy(p) for p in params]


@pytest.mark.parametrize("kind", est.KINDS)
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_state_matches_per_hole_reference(order, kind):
    check_against_reference([ORDERS[order]], seed=11, lam=50,
                            cell_kinds=[kind])


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_mixed_kinds_within_a_family(order):
    kinds = [est.KINDS[i % 3] for i in range(len(ORDERS[order]))]
    check_against_reference([ORDERS[order]], seed=12, lam=7,
                            cell_kinds=[kinds])


# cells of one batch: one program's holes, each cell with its own
# parametrization, kinds and learning rate
BATCHES = {
    "main-nes+vo": ([ORDERS["main-nes"], ORDERS["main-vo"]],
                    [est.NATURAL, est.VO]),
    "ablation-like": ([ORDERS["main-nes"]] * 2 + [ORDERS["main-vo"]] * 2,
                      [est.NATURAL, est.NATURAL, est.SEARCH, est.SEARCH]),
    "mixed-kinds": ([ORDERS["every-family"]] * 3,
                    [[est.KINDS[(i + c) % 3] for i in range(8)]
                     for c in range(3)]),
    "one-hole": ([ORDERS["one-hole"]] * 3, [est.NATURAL] * 3),
    # a COND hole directly followed by an OP hole: neighbours in hole
    # order, but not in group order once a second cell joins
    "cond-op": ([["L6", "L4", "G"]] * 2, [est.NATURAL, est.VO]),
}

# batches whose cells share generators: per cell, the stream it reads
SHARED_STREAMS = {
    "main-nes+vo": [0, 0],
    "ablation-like": [0, 0, 1, 0],  # three cells of one seed, one apart
    "mixed-kinds": [2, 0, 2],
    "one-hole": [0, 0, 0],
    "cond-op": [1, 1],
}


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_joined_cells_match_per_hole_reference(batch):
    codes, kinds = BATCHES[batch]
    etas = [0.37, 0.05, 0.2, 1.3][:len(codes)]
    check_against_reference(codes, seed=13, lam=9, cell_kinds=kinds,
                            etas=etas)


@pytest.mark.parametrize("batch", sorted(SHARED_STREAMS))
def test_cells_sharing_a_generator_match_per_hole_reference(batch):
    """Cells that share a generator each get the draws, gradients and
    steps of a cell alone on a generator of that seed, and the shared
    generator ends where each of those would."""
    codes, kinds = BATCHES[batch]
    etas = [0.37, 0.05, 0.2, 1.3][:len(codes)]
    check_against_reference(codes, seed=13, lam=9, cell_kinds=kinds,
                            etas=etas, streams=SHARED_STREAMS[batch])


class _MatmulCountingNumpy:
    """NumPy that counts its ``matmul`` calls."""

    def __init__(self):
        self.matmuls = 0

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("batch, groups", [("mixed-kinds", 6),
                                           ("main-nes+vo", 3)])
def test_one_weighted_sum_per_group(monkeypatch, batch, groups):
    """One estimate makes one ``matmul`` per group, whatever kinds the
    group's rows hold: every group of ``mixed-kinds`` holds all three
    kinds, and the Gaussian group of ``main-nes+vo`` holds a ``natural``
    and a ``vo`` cell."""
    codes, cell_kinds = BATCHES[batch]
    cell_params = [make_params(c, np.random.default_rng(13 + i))
                   for i, c in enumerate(codes)]
    state = ParamState.of([p for cell in cell_params for p in cell],
                          len(codes))
    kinds = [k for cell, ks in zip(cell_params, cell_kinds)
             for k in est._resolve_kinds(ks, len(cell))]
    counting = _MatmulCountingNumpy()
    monkeypatch.setattr(est, "np", counting)
    rngs = [np.random.default_rng(13 + i) for i in range(len(codes))]
    est.estimate_gradient(state, Fitness(len(codes[0])), 9, rngs, kinds)
    assert len(state.layout.groups) == groups
    assert counting.matmuls == groups


class CountingRng:
    """A ``Generator`` that counts the calls made to it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args):
            self.calls += 1
            return method(*args)
        return counted


# the cells of each command's batch, by arm, in the order the harness
# gives them, with their seeds, and the Generator calls one draw of that
# batch makes: one per hole of each seed's Generator
ABLATION_ARMS = [arm for arm in harness.ABLATION_ARMS
                 for _ in harness.ABLATION_LEARNING_RATES]
COMMAND_BATCHES = {
    "run-main": (harness.MAIN_SKETCH, harness.MAIN_SPEC, harness.MAIN_ARMS,
                 (1,), 6),
    "run-ablation": (harness.ABLATION_SKETCH, harness.ABLATION_SPEC,
                     ABLATION_ARMS, (1,), 6),
    "run-ablation-5-seeds": (harness.ABLATION_SKETCH, harness.ABLATION_SPEC,
                             ABLATION_ARMS, (1, 2, 3, 4, 5), 30),
}


@pytest.mark.parametrize("command", sorted(COMMAND_BATCHES))
def test_generator_calls_per_draw(command):
    """A batch whose cells share one Generator per seed calls each once
    per hole of one cell, and draws what one Generator per cell draws."""
    sketch, spec, arms, seeds, calls = COMMAND_BATCHES[command]
    problem = SketchProblem(parse(sketch), spec)
    cells = [(arm, seed) for arm in arms for seed in seeds]
    state = ParamState.of([p for arm, _ in cells for p in initial_params(
        problem, TrainConfig(estimator_kind=harness.ARM_KINDS[arm]))],
        len(cells))
    rngs = {seed: CountingRng(seed) for seed in seeds}
    plan = DrawPlan(state.layout, [rngs[seed] for _, seed in cells], 50)
    assert len(plan.calls) == calls
    for draw in range(1, 3):
        samples = est.sample_population(state, plan)
        assert sum(r.calls for r in rngs.values()) == draw * calls
    own = [CountingRng(seed) for _, seed in cells]
    plain = DrawPlan(state.layout, own, 50)
    for _ in range(2):
        want = est.sample_population(state, plain)
    assert sum(r.calls for r in own) == 2 * len(state)
    assert_same_bits(samples, want)


def test_shared_generator_reads_as_one_cell_reads_its_own():
    """Three cells on one Generator and one on another, for several
    draws: each cell's rows are those a one-cell plan draws from a
    Generator of its seed, and after each draw the shared Generator is
    where that one-cell Generator is."""
    # the same sequence of uniforms and normals, in other families
    codes = [ORDERS["main-nes"], ORDERS["main-vo"],
             ["B", "G", "G", "L4", "P2", "G"], ORDERS["main-nes"]]
    seeds = [7, 7, 8, 7]
    cells = [ParamState.of(make_params(c, np.random.default_rng(k)))
             for k, c in enumerate(codes)]
    state = ParamState.of([p for cell in cells for p in cell], len(cells))
    shared = {seed: np.random.default_rng(seed) for seed in seeds}
    plan = DrawPlan(state.layout, [shared[seed] for seed in seeds], 11)
    alone = [np.random.default_rng(seed) for seed in seeds]
    plans = [DrawPlan(cell.layout, [rng], 11)
             for cell, rng in zip(cells, alone)]
    for _ in range(3):
        samples = est.sample_population(state, plan)
        for c, (cell, cell_plan) in enumerate(zip(cells, plans)):
            want = est.sample_population(cell, cell_plan)
            assert_same_bits(samples[state.layout.member_rows[:, c]],
                             want[cell.layout.member_rows[:, 0]])
            assert (shared[seeds[c]].bit_generator.state
                    == alone[c].bit_generator.state)


@pytest.mark.parametrize("codes", [
    (["B", "G"], ["G", "B"]),              # the same draws in another order
    (["L4", "P6", "G"], ["L4", "G", "G"]),  # a normal for a uniform
], ids=str)
def test_cells_sharing_a_generator_must_draw_alike(codes):
    """Cells of one layout have as many holes each; a shared Generator
    also needs a uniform or a normal at the same place in each."""
    state = ParamState.of([p for c in codes
                           for p in make_params(c, np.random.default_rng(0))],
                          len(codes))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^cells 0 and 1 share a Generator"
                                         " but draw different sequences$"):
        DrawPlan(state.layout, [rng, rng], 5)
    DrawPlan(state.layout, [rng, np.random.default_rng(0)], 5)


@settings(max_examples=150, deadline=None)
@given(codes=st.lists(st.sampled_from(["B", "G", "L2", "L3", "L4", "L6",
                                       "L7", "L9", "P2", "P4", "P6", "P7",
                                       "P12"]), min_size=1, max_size=9),
       seed=st.integers(0, 2**32 - 1), lam=st.integers(1, 40),
       kinds=st.sampled_from(est.KINDS))
def test_random_family_sequences(codes, seed, lam, kinds):
    check_against_reference([codes], seed, lam, [kinds])


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_per_hole_methods_match_reference(order):
    rng = np.random.default_rng(5)
    for p in make_params(ORDERS[order], rng):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        xs = p.sample(a, size=20)
        assert_same_bits(xs, ref_sample(p, b, 20))
        x = np.asarray(xs, dtype=np.float64)
        for kind, method in ((est.SEARCH, p.score),
                             (est.NATURAL, p.natural_score),
                             (est.VO, p.prob_gradient)):
            assert_same_bits(method(xs), ref_weights(p, x, kind))
            assert_same_bits(method(xs[0]), ref_weights(p, x[:1], kind)[0])
        assert p.entropy() == ref_entropy(p)
        assert p.greedy() == ref_greedy(p)
        g = rng.normal(size=vector_of(p).size)
        assert_same_bits(vector_of(p.stepped(g, 0.2)), ref_step(p, g, 0.2))


def test_projection_at_the_bounds():
    params = make_params(["B", "P4", "B", "P2"], np.random.default_rng(2))
    grads = [np.array([50.0]), np.array([90.0, -90.0, 0.0, 1.0]),
             np.array([-50.0]), np.array([-1e3, 1e3])]
    stepped = sgd_step(params, grads, 1.0)
    for p, g, q in zip(params, grads, stepped):
        assert_same_bits(vector_of(q), ref_step(p, g, 1.0))
    assert stepped[0].theta == 1.0 - EPS and stepped[2].theta == EPS


def test_step_projects_only_bernoulli_and_probs_groups(monkeypatch):
    # groups B, L4 and L6, P4, G; a LOGITS or Gaussian group is only
    # bounded
    assert not hasattr(CategoricalBlock, "project")
    assert not hasattr(GaussianBlock, "project")
    calls = []

    def recorded(block_type):
        project = block_type.project

        def spy(values, real):
            calls.append((block_type, values.shape))
            project(values, real)
        return staticmethod(spy)

    for block_type in (BernoulliBlock, ProbsBlock):
        monkeypatch.setattr(block_type, "project", recorded(block_type))
    rng = np.random.default_rng(8)
    params = make_params(["B", "L4", "P4", "G", "P4", "B", "L6"], rng)
    grads = [rng.normal(scale=10.0, size=vector_of(p).size) for p in params]
    stepped = sgd_step(params, grads, 0.3)
    assert calls == [(BernoulliBlock, (2, 1)), (ProbsBlock, (2, 4))]
    for p, g, q in zip(params, grads, stepped):
        assert_same_bits(vector_of(q), ref_step(p, g, 0.3))
    # the steps reach the projections' bounds
    assert {stepped[0].theta, stepped[5].theta} & {EPS, 1.0 - EPS}
    assert min(stepped[2].values.min(), stepped[4].values.min()) < 2 * EPS


def test_hole_free_cells_join_and_come_back():
    # a sketch without holes trains as a batch of such cells
    cells = [ParamState.of([]) for _ in range(3)]
    joint = ParamState.of([], 3)
    assert len(joint) == 0 and joint.layout.cell_count == 3
    assert joint.vector.shape == (0,)
    for c, cell in enumerate(cells):
        back = joint.stepped(joint.vector, 0.1).cell(c)
        assert back.layout.keys == cell.layout.keys == []
        assert back.layout.cell_count == 1 and back.params() == []
        assert_same_bits(back.vector, cell.vector)


def test_state_reads_as_a_params_set():
    params = make_params(ORDERS["G,C,C,G,B,C"], np.random.default_rng(4))
    state = ParamState.of(params)
    assert ParamState.of(state) is state
    assert len(state) == len(params)
    assert [type(q) for q in state] == [type(p) for p in params]
    for p, q in zip(params, state):
        assert_same_bits(vector_of(q), vector_of(p))
    state[1].values[0] = 99.0  # a copy: the state is unchanged
    assert_same_bits(vector_of(state[1]), vector_of(params[1]))


def test_divergence_names_first_hole_in_hole_order():
    # the vector holds groups G[0,3], L[1,2], B[4], P[5]: hole 3 sits
    # before hole 1 in the vector, but hole 1 comes first in hole order
    params = make_params(ORDERS["G,C,C,G,B,C"], np.random.default_rng(6))
    grads = [np.zeros(vector_of(p).size) for p in params]
    grads[3][1] = np.nan
    grads[1][4] = np.inf
    ids = [f"h{i}" for i in range(len(params))]
    with pytest.raises(FloatingPointError, match="hole 'h1' after update"):
        sgd_step(ParamState.of(params), grads, 0.1, hole_ids=ids)
    with pytest.raises(FloatingPointError, match="hole 1 after update"):
        sgd_step(params, grads, 0.1)


def test_cells_must_split_the_holes_evenly():
    params = make_params(["G", "L4", "B"], np.random.default_rng(0))
    with pytest.raises(ValueError,
                       match="^3 holes do not split into 2 equal cells$"):
        ParamState.of(params, cells=2)
    assert ParamState.of(params, cells=3).layout.cell_size == 1


@pytest.mark.parametrize("c", [2, -3, 5])
def test_cell_out_of_range_rejected(c):
    cells = [ParamState.of(make_params(["G", "L4"], np.random.default_rng(k)))
             for k in range(2)]
    joint = ParamState.of([p for cell in cells for p in cell], 2)
    assert_same_bits(joint.cell(-2).vector, cells[0].vector)
    with pytest.raises(IndexError):
        joint.cell(c)


def test_cells_of_other_widths_join_and_come_back():
    # the joint rows are as wide as cell 1's; cell 0's P4 and L2 rows are
    # padded further in the joint state than in its own
    codes = (["P4", "G", "L2"], ["P6", "G", "L3"])
    cells = [ParamState.of(make_params(c, np.random.default_rng(k)))
             for k, c in enumerate(codes)]
    joint = ParamState.of([p for cell in cells for p in cell], 2)
    assert [g.width for g in cells[0].layout.groups] == [4, 2, 2]
    assert [g.width for g in joint.layout.groups] == [6, 2, 3]
    rng = np.random.default_rng(3)
    grads = [[rng.normal(size=vector_of(p).size) for p in cell]
             for cell in cells]
    stepped = joint.stepped(joint.layout.vector_of(grads[0] + grads[1]), 0.4)
    for c, cell in enumerate(cells):
        back = joint.cell(c).layout
        assert back.keys == cell.layout.keys
        assert ([g.width for g in back.groups]
                == [g.width for g in cell.layout.groups])
        assert_same_bits(joint.cell(c).vector, cell.vector)
        assert_same_bits(stepped.cell(c).vector,
                         sgd_step(cell, grads[c], 0.4).vector)


def test_runs_of_cells_come_out_as_their_params_lay_out():
    # the mixed-width cells above, cell 0's shape twice: each run taken out
    # of the joint state is what its per-hole params lay out afresh, and
    # cells of one shape come out on one shared layout
    codes = (["P4", "G", "L2"], ["P6", "G", "L3"], ["P4", "G", "L2"])
    params = [p for k, c in enumerate(codes)
              for p in make_params(c, np.random.default_rng(k))]
    joint = ParamState.of(params, 3)
    rng = np.random.default_rng(5)
    stepped = joint.stepped(joint.layout.vector_of(
        [rng.normal(size=vector_of(p).size) for p in params]), 0.4)
    for state in (joint, stepped):
        for a in range(3):
            for b in range(a + 1, 4):
                got = state.cells(a, b)
                want = ParamState.of(state.params()[a * 3:b * 3], b - a)
                assert got.layout.keys == want.layout.keys
                assert got.layout.cell_count == b - a
                assert ([g.width for g in got.layout.groups]
                        == [g.width for g in want.layout.groups])
                assert_same_bits(got.vector, want.vector)
    assert joint.cell(0).layout is joint.cell(2).layout
    assert joint.cell(0).layout is stepped.cell(-1).layout
    assert joint.cell(0).layout is not joint.cell(1).layout
    assert joint.cells(0, 2).layout is stepped.cells(0, 2).layout
    for start, stop in ((1, 1), (2, 1), (-1, 1), (2, 4)):
        with pytest.raises(IndexError, match=f"^no cells {start}:{stop} "):
            joint.cells(start, stop)


def test_states_of_one_shape_share_one_layout():
    """One layout per (hole keys, cell count), whatever made the state:
    ``of`` on equal params-sets, a run of cells taken out of a joint
    state, a step of either, or a one-hole view of a distribution."""
    params = make_params(["P4", "G", "L2"], np.random.default_rng(0))
    state = ParamState.of(params)
    assert ParamState.of([p.copy() for p in params]).layout is state.layout
    joint = ParamState.of(params * 3, 3)
    assert ParamState.of(params * 3, 3).layout is joint.layout
    assert joint.cells(0, 3).layout is joint.layout
    assert joint.cell(1).layout is state.layout
    assert sgd_step(state, [np.zeros(vector_of(p).size) for p in params],
                    0.1).layout is state.layout
    assert ParamState.of([state[2]]).layout is ParamState.of(
        [CategoricalParams([0.0, 1.0])]).layout
    # other keys or another cell count: another layout
    assert ParamState.of(params * 3).layout is not joint.layout
    assert ParamState.of(params[::-1]).layout is not state.layout
    assert (ParamState.of(make_params(["P4", "G", "L3"],
                                      np.random.default_rng(0))).layout
            is not state.layout)


def pad_positions(layout):
    """The vector positions that belong to no hole's parameters."""
    pads = np.ones(layout.hole_of.size, dtype=bool)
    for span in layout.spans:
        pads[span] = False
    return pads


def test_no_pad_shows_outside_the_state():
    params = make_params(ORDERS["mixed-K"], np.random.default_rng(9))
    state = ParamState.of(params)
    pads = pad_positions(state.layout)
    # per mode, K = 2 and 3 share a group, and so do K = 4 to 7
    assert [g.width for g in state.layout.groups] == [3, 7, 7, 3]
    assert pads.sum() == 10  # L2 1, P4 3, L6 1, P2 1, L4 3, P6 1
    assert_same_bits(state.vector, ref_vector(
        params, [vector_of(p) for p in params], param_pad))
    assert [q.k for q in state.params()] == [p.k for p in params]
    for p, q in zip(params, state):
        assert_same_bits(vector_of(q), vector_of(p))
    ids = [f"h{i}" for i in range(len(params))]
    back_ids, back = harness.params_from_json(
        harness.params_to_json(state, ids))
    assert back_ids == ids
    assert_same_bits(ParamState.of(back).vector, state.vector)

    for kind in est.KINDS:
        estimate = est.estimate_gradient(state, Fitness(len(params)), 9,
                                         np.random.default_rng(1), kind)
        assert [g.size for g in estimate.gradients] == [p.k for p in params]
        assert_same_bits(estimate.vector[pads], np.zeros(pads.sum()))
        # per-hole gradients step as the vector does, and pads take none
        stepped = sgd_step(params, estimate.gradients, 0.3)
        assert_same_bits(state.layout.vector_of(estimate.gradients),
                         estimate.vector)
        assert_same_bits(stepped.vector,
                         sgd_step(state, estimate.vector, 0.3).vector)
        assert_same_bits(stepped.vector[pads], state.vector[pads])
    # a gradient as wide as its group's row is not a hole's gradient
    wide = [np.zeros(7 if p.k > 3 else 3) for p in params]
    with pytest.raises(ValueError, match="layout"):
        sgd_step(state, wide, 0.1)


def test_pads_never_trip_the_bounds_check():
    # LOGITS pads are -inf, beyond -LOGIT_MAX, and PROBS pads 0.0, below
    # EPS: a pad is its own bound
    params = make_params(ORDERS["mixed-K"], np.random.default_rng(10))
    state = ParamState.of(params)
    pads = pad_positions(state.layout)
    assert np.isneginf(state.vector[pads]).any()
    assert (state.vector[pads] == 0.0).any()
    rng = np.random.default_rng(11)
    for _ in range(50):
        grads = [rng.normal(scale=30.0, size=p.k) for p in params]
        state = sgd_step(state, grads, 0.5)
    assert_same_bits(state.vector[pads], ParamState.of(params).vector[pads])


@pytest.mark.parametrize("hole, value, fault", [
    (1, np.inf, "non-finite"),      # a LOGITS hole of K = 4 padded to 6
    (1, 1e308, "out-of-range"),     # its -inf pads are not out of range
    (3, np.nan, "non-finite"),      # a PROBS hole of K = 4 padded to 6
], ids=str)
def test_divergence_in_a_padded_hole_names_it(hole, value, fault):
    params = make_params(["L6", "L4", "P6", "P4", "G"],
                         np.random.default_rng(12))
    state = ParamState.of(params)
    assert [g.width for g in state.layout.groups] == [6, 6, 2]
    grads = [np.zeros(vector_of(p).size) for p in params]
    grads[hole][2] = value
    ids = [f"h{i}" for i in range(len(params))]
    with pytest.raises(FloatingPointError,
                       match=f"^{fault} parameters for hole 'h{hole}' "):
        sgd_step(state, grads, 1.0, hole_ids=ids)


class ScriptedRng:
    """Hands out the given rows, one per ``Generator`` call, in order."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def random(self, size, dtype, out):
        out[...] = next(self.rows)

    standard_normal = random


def test_categorical_sample_ties_break_low():
    # a uniform equal to a cumulative probability picks that category,
    # as ``searchsorted(side="left")`` does
    probs = np.array([[0.25, 0.25, 0.5]])
    u = np.array([[0.0, 0.25, 0.3, 0.5, 0.75, 1.0]])
    state = ParamState.of([CategoricalParams(probs[0], PROBS)])
    got = DrawPlan(state.layout, [ScriptedRng(u)], 6).sample(state.blocks)
    want = np.minimum(np.searchsorted(np.cumsum(probs[0]), u[0],
                                      side="left"), 2)
    assert_same_bits(got[0], want.astype(np.float64))
    assert got.tolist() == [[0, 0, 1, 1, 2, 2]]


def test_one_draw_of_every_categorical_hole_matches_per_hole():
    # K = 4 and K = 6 groups of both modes with a Gaussian group between
    # them; the first hole's cumulative sums end below the largest uniform
    cells = [[CategoricalParams([0.3, 0.4, 0.2, 1.0 - 0.3 - 0.4 - 0.2],
                                PROBS),
              GaussianParams(0.5, -1.0),
              CategoricalParams([0.1, 0.2, 0.3, 0.1, 0.2, 0.1], PROBS)],
             [CategoricalParams([0.5, -1.0, 2.0, 0.0, 1.0, -3.0], LOGITS),
              GaussianParams(-2.0, 0.5),
              CategoricalParams([1.0, 0.0, -1.0, 2.0], LOGITS)]]
    assert np.cumsum(cells[0][0].values)[-1] < np.nextafter(1.0, 0.0)
    noise = []  # per cell, per hole: the rows its draws read
    for params in cells:
        noise.append([])
        for p in params:
            if isinstance(p, GaussianParams):
                noise[-1].append(np.linspace(-3.0, 3.0, 17))
                continue
            cum = np.cumsum(ref_probs(p))
            # every cumulative boundary and its neighbours, 0 and the
            # largest uniform
            u = np.concatenate([cum[:-1], np.nextafter(cum[:-1], 0.0),
                                np.nextafter(cum[:-1], 1.0),
                                [0.0, np.nextafter(1.0, 0.0)]])
            noise[-1].append(np.resize(u, 17))
    state = ParamState.of([p for params in cells for p in params],
                          len(cells))
    # the groups: PROBS K = 4 and 6, Gaussian, LOGITS K = 6 and 4, each
    # K = 4 row padded to 6
    assert [g.width for g in state.layout.groups] == [6, 2, 6]
    plan = DrawPlan(state.layout, [ScriptedRng(rows) for rows in noise], 17)
    samples = est.sample_population(state, plan)
    holes = [p for params in cells for p in params]
    rows = [u for cell in noise for u in cell]
    for group in state.layout.groups:
        for row, hole in zip(range(group.rows.start, group.rows.stop),
                             group.holes):
            p, u = holes[hole], rows[hole]
            if isinstance(p, GaussianParams):
                want = p.mu + math.exp(p.log_sigma) * u
            else:
                want = np.minimum(np.searchsorted(np.cumsum(ref_probs(p)), u,
                                                  side="left"),
                                  p.k - 1).astype(np.float64)
            assert_same_bits(samples[row], want)


@pytest.mark.parametrize("sizes", [(2, 3), (3, 3), (2, 4, 1), (2,)],
                         ids=str)
def test_gradient_layout_must_match(sizes):
    # (3, 3) has the right total, but not per hole
    params = make_params(["G", "L4"], np.random.default_rng(7))
    with pytest.raises(ValueError, match="layout"):
        sgd_step(params, [np.zeros(n) for n in sizes], 0.1)
