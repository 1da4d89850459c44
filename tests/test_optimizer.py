import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disnes import estimator as est
from disnes import harness, optimizer
from disnes.distributions import (
    EPS, LOGITS, PROBS, BernoulliBlock, BernoulliParams, CategoricalBlock,
    CategoricalParams, DrawPlan, GaussianBlock, GaussianParams, ParamState,
)
from disnes.optimizer import (
    TrainConfig, TrainingLog, _transform_for, greedy_decode, initial_params,
    sgd_step, train,
)
from disnes.sketch import SketchProblem, parse


class BasicProblem:
    """Train directly over a fixed params-set with an arbitrary fitness:
    distribution-level problems (one-max and friends) with no program
    sketch behind them.  ``population`` scores the ``(holes, n)`` draws
    matrix, one row of values per hole."""

    def __init__(self, params_set, population, hole_ids=None):
        self._params = [p.copy() for p in params_set]
        self.fitness = SimpleNamespace(population=population)
        self._hole_ids = list(hole_ids) if hole_ids else [
            f"h{i}" for i in range(len(params_set))]

    def params(self):
        return [p.copy() for p in self._params]

    def hole_ids(self):
        return list(self._hole_ids)


def onemax(xs):
    return xs.sum(axis=0)


def bern_problem(n=8, theta=0.5):
    return BasicProblem([BernoulliParams(theta) for _ in range(n)], onemax)


class TestSgdStep:
    def test_bernoulli_plain_arithmetic(self):
        out = sgd_step([BernoulliParams(0.4)], [np.array([0.5])], 0.2)
        assert out[0].theta == pytest.approx(0.5)

    def test_clamps_at_boundary(self):
        out = sgd_step([BernoulliParams(0.999999)], [np.array([10.0])], 1.0)
        assert out[0].theta == pytest.approx(1.0 - EPS)
        out = sgd_step([BernoulliParams(1e-6)], [np.array([-10.0])], 1.0)
        assert out[0].theta == pytest.approx(EPS)

    def test_probs_step_renormalizes(self):
        p = CategoricalParams(np.array([0.2, 0.3, 0.5]), mode=PROBS)
        out = sgd_step([p], [np.array([0.3, -0.1, -0.2])], 1.0)[0]
        assert out.values.sum() == pytest.approx(1.0)
        assert np.all(out.values >= EPS)

    def test_logits_step_unconstrained(self):
        p = CategoricalParams(np.array([0.0, 0.0]), mode=LOGITS)
        out = sgd_step([p], [np.array([100.0, -100.0])], 1.0)[0]
        assert out.values == pytest.approx([100.0, -100.0])

    def test_gaussian_step(self):
        p = GaussianParams(1.0, 0.0)
        out = sgd_step([p], [np.array([0.5, -0.25])], 0.1)[0]
        assert out.mu == pytest.approx(1.05)
        assert out.log_sigma == pytest.approx(-0.025)

    @pytest.mark.parametrize("params,gradient", [
        (BernoulliParams(0.5), [np.nan]),
        (CategoricalParams(np.full(3, 1 / 3), mode=PROBS), [np.nan, 0.0, 0.0]),
        (CategoricalParams(np.zeros(3), mode=LOGITS), [np.inf, 0.0, 0.0]),
        (GaussianParams(0.0, 0.0), [0.0, np.nan]),
        # finite, but beyond the f32 range of a decoded program's literal
        (GaussianParams(0.0, 0.0), [1e40, 0.0]),
    ], ids=["bernoulli", "categorical_probs", "categorical_logits",
            "gaussian", "gaussian_mu_beyond_f32"])
    def test_divergent_step_raises_naming_the_hole(self, params, gradient):
        with pytest.raises(FloatingPointError, match="hole 'h7'"):
            sgd_step([params], [np.array(gradient)], 0.1, hole_ids=["h7"])
        with pytest.raises(FloatingPointError, match="hole 0 "):
            sgd_step([params], [np.array(gradient)], 0.1)
        # a per-hole step is the step of a one-hole state
        with pytest.raises(optimizer.DivergenceError, match="hole 0 "):
            params.stepped(np.array(gradient), 0.1)

    def test_sigma_overflow_raises_naming_the_hole(self):
        # log sigma = 800 is finite, but sigma = exp(800) is not: sampling
        # would end in math.exp's OverflowError
        with pytest.raises(FloatingPointError, match="hole 'h7'"):
            sgd_step([GaussianParams(0.0, 0.0)], [np.array([0.0, 8000.0])],
                     0.1, hole_ids=["h7"])
        with pytest.raises(FloatingPointError, match="hole 0 "):
            sgd_step([GaussianParams(0.0, 0.0)], [np.array([0.0, 8000.0])],
                     0.1)
        with pytest.raises(optimizer.DivergenceError, match="hole 0 "):
            GaussianParams(0.0, 0.0).stepped(np.array([0.0, 8000.0]), 0.1)
        # just below the bound the state still samples
        state = sgd_step([GaussianParams(0.0, 0.0)],
                         [np.array([0.0, 7090.0])], 0.1)
        draws = est.sample_population(
            state, DrawPlan(state.layout, [np.random.default_rng(0)], 8))
        assert np.isfinite(draws[0]).all()

    def test_sigma_underflow_raises_naming_the_hole(self):
        # log sigma = -709 is finite, but sigma = exp(-709) is subnormal,
        # and further down 0.0: the Gaussian scores would divide 0 / 0
        with pytest.raises(FloatingPointError, match="hole 'h7'"):
            sgd_step([GaussianParams(0.0, 0.0)], [np.array([0.0, -7090.0])],
                     0.1, hole_ids=["h7"])
        # just above the bound sigma is the smallest normal float or more,
        # and sampling and scoring stay finite
        state = sgd_step([GaussianParams(0.0, 0.0)],
                         [np.array([0.0, -7083.0])], 0.1)
        assert state[0].sigma >= np.finfo(np.float64).tiny
        draws = est.sample_population(
            state, DrawPlan(state.layout, [np.random.default_rng(0)], 8))
        [block] = state.blocks
        assert np.isfinite(block.natural_score(draws)).all()

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sgd_step([BernoulliParams(0.5)], [], 0.1)

    def test_hole_free_gradient_list_steps(self):
        state = sgd_step([], [], 0.1)
        assert len(state) == 0
        assert state.vector.dtype == np.float64 and state.vector.size == 0
        assert ParamState.of([]).layout.vector_of([]).dtype == np.float64

    def test_inputs_not_mutated(self):
        p = BernoulliParams(0.4)
        sgd_step([p], [np.array([1.0])], 0.5)
        assert p.theta == 0.4

    def test_projection_fuzz(self):
        # random walks never leave the feasible region
        rng = np.random.default_rng(17)
        params = [
            BernoulliParams(0.5),
            CategoricalParams(np.full(4, 0.25), mode=PROBS),
        ]
        for _ in range(10_000):
            grads = [rng.normal(size=dim) * 10 for dim in (1, 4)]
            params = sgd_step(params, grads, 0.5)
            assert EPS <= params[0].theta <= 1.0 - EPS
            assert params[1].values.sum() == pytest.approx(1.0)
            # renormalization after the clamp can shrink the floor by at
            # most a factor of K
            assert np.all(params[1].values >= EPS / 4)


class TestDivergenceWithoutWarnings:
    """Runs that diverge past the bounds a finite check misses end in the
    documented error, or train on, but never in a ``RuntimeWarning``."""

    @staticmethod
    def _train(seed, transform):
        problem = SketchProblem(parse(harness.MAIN_SKETCH), harness.MAIN_SPEC)
        config = TrainConfig(iterations=3, population=8, log_every=2,
                             estimator_kind=est.SEARCH, learning_rate=0.3,
                             seed=seed, fitness_transform=transform)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return train(problem, [config])

    def test_sigma_underflow_is_a_divergence_error(self):
        # log sigma falls below about -745 here, where sigma = 0.0
        with pytest.raises(optimizer.DivergenceError,
                           match="out-of-range parameters for hole 'real2' "
                                 "after update"):
            self._train(49, "raw")

    def test_softmax_underflow_logs_finite_entropies(self):
        [(log, params)] = self._train(37, "baseline")
        assert 0.0 in params[0].probs()  # the regime is reached
        assert "nan" not in log.to_csv()
        assert all(math.isfinite(v) for r in log.records
                   for v in r.entropies)


class TestGreedyDecode:
    def test_modes(self):
        params = [
            BernoulliParams(0.8),
            CategoricalParams(np.log([0.1, 0.7, 0.2]), mode=LOGITS),
            GaussianParams(-2.5, 1.0),
        ]
        assert greedy_decode(params) == [1, 1, -2.5]


class TestTrainLoop:
    def test_single_iteration_single_record(self):
        cfg = TrainConfig(iterations=1, seed=3, population=8)
        [(log, params)] = train(bern_problem(), [cfg])
        assert len(log.records) == 1
        assert log.records[0].iteration == 1
        assert log.records[0].decode_loss is not None
        assert len(params) == 8

    def test_divergence_raises_floating_point_error_naming_the_hole(
            self, monkeypatch):
        estimate_gradient = est.estimate_gradient

        def diverging(*args, **kwargs):
            estimate = estimate_gradient(*args, **kwargs)
            estimate.gradients[1] *= np.nan  # a view of estimate.vector
            return estimate

        monkeypatch.setattr(est, "estimate_gradient", diverging)
        problem = BasicProblem([BernoulliParams(0.5), GaussianParams(0.0, 0.0)],
                               lambda xs: -xs[1] ** 2,
                               hole_ids=["flag", "shift"])
        with pytest.raises(FloatingPointError, match="hole 'shift'"):
            train(problem, [TrainConfig(iterations=2, population=4)])

    def test_record_count_matches_log_every(self):
        cfg = TrainConfig(iterations=95, log_every=10, seed=3, population=8)
        [(log, _)] = train(bern_problem(), [cfg])
        assert [r.iteration for r in log.records] == list(range(1, 96, 10))
        with_decode = [r for r in log.records if r.decode_loss is not None]
        assert len(with_decode) == 1  # only iteration 1 hits every*10

    def test_onemax_converges(self):
        cfg = TrainConfig(iterations=200, learning_rate=0.1, population=32,
                          seed=11)
        [(_, params)] = train(bern_problem(), [cfg])
        for p in params:
            assert p.theta >= 0.99

    def test_onemax_median_theta_monotone(self):
        # the median success probability across seeds should not decrease
        # through the checkpoint schedule
        checkpoints = (10, 50, 100, 200)
        medians = []
        for it in checkpoints:
            thetas = []
            for seed in range(20):
                cfg = TrainConfig(iterations=it, learning_rate=0.05,
                                  population=16, seed=seed)
                [(_, params)] = train(bern_problem(n=4), [cfg])
                thetas += [p.theta for p in params]
            medians.append(np.median(thetas))
        assert all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))
        assert medians[-1] > 0.9

    def test_search_and_natural_agree_on_onemax(self):
        for kind in (est.SEARCH, est.NATURAL):
            cfg = TrainConfig(iterations=300, learning_rate=0.05,
                              population=32, seed=5, estimator_kind=kind)
            [(_, params)] = train(bern_problem(n=4), [cfg])
            assert greedy_decode(params) == [1, 1, 1, 1]

    def test_natural_solves_onemax_where_search_fixes_bits_wrong(self):
        """OneMax on 256 Bernoulli(0.5) holes at lr 1.0: every ``natural``
        cell decodes all ones, and every ``search`` cell keeps a zero.

        On Bernoulli holes the ``natural`` step, theta += lr * E[w (x -
        theta)], is the PBIL update (Baluja, "Population-Based
        Incremental Learning", CMU-CS-94-163, 1994).  The ``search`` step
        divides that by theta (1 - theta), so its steps grow as theta
        nears a bound, and too large an update strength fixes bits at the
        wrong value by genetic drift (Sudholt & Witt, "On the choice of
        the update strength in estimation-of-distribution algorithms and
        ant colony optimization", Algorithmica 81, 2019).  All six cells
        train as one batch, so their Bernoulli group holds two kinds."""
        configs = cell_configs([(kind, 1.0, seed)
                                for kind in (est.NATURAL, est.SEARCH)
                                for seed in (1, 2, 3)],
                               iterations=300, population=50,
                               fitness_transform="standardize")
        runs = train(bern_problem(n=256), configs)
        for config, (_, params) in zip(configs, runs, strict=True):
            decoded = greedy_decode(params)
            assert (0 in decoded) == (config.estimator_kind == est.SEARCH)

    def test_categorical_problem_decodes_argmax(self):
        target = 2

        problem = BasicProblem(
            [CategoricalParams(np.zeros(4), mode=LOGITS)],
            lambda xs: (xs[0] == target) * 1.0)
        cfg = TrainConfig(iterations=300, learning_rate=0.1, population=32,
                          seed=8)
        [(_, params)] = train(problem, [cfg])
        assert greedy_decode(params) == [target]

    def test_decode_invariant_under_fitness_scaling(self):
        scaled = BasicProblem(
            [BernoulliParams(0.5) for _ in range(6)],
            lambda xs: 4.0 * onemax(xs))
        cfg = TrainConfig(iterations=150, population=32, seed=13)
        [(_, pa)] = train(bern_problem(n=6), [cfg])
        [(_, pb)] = train(scaled, [cfg])
        assert greedy_decode(pa) == greedy_decode(pb)

    def test_determinism(self):
        cfg = TrainConfig(iterations=40, seed=21, population=16)
        [(la, pa)] = train(bern_problem(), [cfg])
        [(lb, pb)] = train(bern_problem(), [cfg])
        assert la.to_csv() == lb.to_csv()
        assert [p.theta for p in pa] == [p.theta for p in pb]

    def test_loss_is_negated_mean_fitness(self):
        cfg = TrainConfig(iterations=1, seed=2, population=16)
        [(log, _)] = train(bern_problem(n=3), [cfg])
        # one-max fitness lies in [0, 3], so the logged loss must be in [-3, 0]
        assert -3.0 <= log.records[0].loss <= 0.0

    def test_gaussian_quadratic_bowl(self):
        problem = BasicProblem(
            [GaussianParams(4.0, 0.0)],
            lambda xs: -(xs[0] - 1.0) ** 2)
        cfg = TrainConfig(iterations=500, learning_rate=0.1, population=32,
                          seed=4)
        [(_, params)] = train(problem, [cfg])
        assert params[0].mu == pytest.approx(1.0, abs=0.1)
        assert params[0].sigma < 0.2  # variance collapses onto the optimum

    def test_natural_mode_carries_probs_params(self):
        problem = BasicProblem(
            [CategoricalParams(np.zeros(3), mode=LOGITS)],
            lambda xs: np.zeros(xs.shape[1]))
        cfg_nat = TrainConfig(estimator_kind=est.NATURAL)
        cfg_srch = TrainConfig(estimator_kind=est.SEARCH)
        assert initial_params(problem, cfg_nat)[0].mode == PROBS
        assert initial_params(problem, cfg_srch)[0].mode == LOGITS

    def test_natural_cells_start_at_uniform_probs(self):
        """A NATURAL cell's categoricals move to PROBS at exactly 1/K, the
        bits of a uniform probability vector; its Gaussians, and every
        hole of the other kinds, keep the problem's distributions."""
        problem = main_problem()
        for kind in est.KINDS:
            params = initial_params(problem, TrainConfig(estimator_kind=kind))
            for p, want in zip(params, problem.params(), strict=True):
                if kind == est.NATURAL and isinstance(want, CategoricalParams):
                    assert p.mode == PROBS
                    assert p.values.tobytes() == np.full(
                        want.k, 1.0 / want.k).tobytes()
                else:
                    assert repr(p) == repr(want)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"iterations": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -0.1},
        {"population": 0},
        {"log_every": 0},
        {"fitness_transform": "clip"},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": float("-inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("iterations", 2.5), ("iterations", 2.0), ("iterations", True),
        ("population", 2.5), ("population", True), ("population", "8"),
        ("log_every", 2.5), ("log_every", np.True_),
        ("seed", 1.5), ("seed", True), ("seed", -1), ("seed", None),
        ("learning_rate", True), ("learning_rate", np.True_),
        ("learning_rate", "0.1"),
        ("estimator_kind", "bogus"), ("estimator_kind", None),
    ])
    def test_rejects_values_train_cannot_run(self, name, value):
        """A count or seed that is not a non-bool integer, a negative seed,
        a bool learning rate and an unknown estimator kind are refused when
        the config is made, each naming its field, not deep in ``train``
        (or not at all)."""
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_accepts_numpy_numbers_as_python_numbers(self):
        """NumPy integers and floats are accepted, and kept as ``int`` and
        ``float``: a ``uint8`` ``log_every`` of 30 still decodes every 300
        iterations, where ``uint8(30) * 10`` would wrap around to 44."""
        config = TrainConfig(iterations=np.int64(301), population=np.int32(4),
                             log_every=np.uint8(30), seed=np.int64(0),
                             learning_rate=np.float32(0.25))
        assert [type(getattr(config, name)) for name in (
            "iterations", "population", "log_every", "seed",
            "learning_rate")] == [int] * 4 + [float]
        assert config.learning_rate == np.float32(0.25)
        log = train(bern_problem(), [config])[0][0]
        assert [r.iteration for r in log.records
                if r.decode_loss is not None] == [1, 301]


class TestFitnessTransform:
    @pytest.mark.parametrize("ties", [False, True])
    def test_standardize_matches_ndarray_std_bit_for_bit(self, ties):
        rng = np.random.default_rng(8)
        standardize = _transform_for("standardize")
        for _ in range(500):
            f = rng.normal(size=50) * rng.uniform(0.01, 100)
            if ties:
                f = np.round(f)
            centered = f - f.mean()
            scale = centered.std()
            want = centered / scale if scale > 0.0 else centered
            assert standardize(f).tobytes() == want.tobytes()
            assert est.mean(f) == f.mean()


class TestCsv:
    def test_header_and_rows(self):
        cfg = TrainConfig(iterations=11, log_every=10, seed=9, population=8)
        problem = BasicProblem(
            [BernoulliParams(0.5), GaussianParams(0.0, 0.0)],
            lambda xs: xs[0] - xs[1] ** 2,
            hole_ids=["flag", "knob"])
        [(log, _)] = train(problem, [cfg])
        lines = log.to_csv().strip().split("\n")
        assert lines[0] == "iter,loss,entropy_flag,decode_loss"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[3] != ""  # decode at iteration 1
        second = lines[2].split(",")
        assert second[0] == "11"
        assert second[3] == ""  # no decode at iteration 11

    def test_values_round_trip_exactly(self):
        cfg = TrainConfig(iterations=5, log_every=1, seed=10, population=8)
        [(log, _)] = train(bern_problem(n=2), [cfg])
        lines = log.to_csv().strip().split("\n")
        for rec, line in zip(log.records, lines[1:]):
            fields = line.split(",")
            assert float(fields[1]) == rec.loss  # repr() preserves the float

    def test_write_csv(self, tmp_path):
        cfg = TrainConfig(iterations=1, seed=1, population=8)
        [(log, _)] = train(bern_problem(n=2), [cfg])
        path = tmp_path / "log.csv"
        log.write_csv(path)
        assert path.read_text(encoding="utf-8") == log.to_csv()


# --- one batch of cells against the same cells trained one by one ---------

def main_problem():
    return SketchProblem(parse(harness.MAIN_SKETCH), harness.MAIN_SPEC)


def mixed_problem():
    """Bernoulli, categorical and Gaussian holes with no sketch behind."""
    return BasicProblem(
        [BernoulliParams(0.5), CategoricalParams(np.zeros(4), mode=LOGITS),
         GaussianParams(0.0, 0.0), BernoulliParams(0.3)],
        lambda xs: xs[0] + (xs[1] == 2) - (xs[2] - 1.5) ** 2 - xs[3],
        hole_ids=["b0", "c1", "g2", "b3"])


def cell_configs(cells, **shared):
    return [TrainConfig(estimator_kind=kind, learning_rate=lr, seed=seed,
                        **shared) for kind, lr, seed in cells]


def assert_same_run(got, want):
    """Two ``(log, params)`` pairs agree bit for bit."""
    (log, params), (want_log, want_params) = got, want
    assert log.to_csv() == want_log.to_csv()
    assert isinstance(params, ParamState)
    assert params.vector.tobytes() == want_params.vector.tobytes()
    assert [repr(p) for p in params] == [repr(p) for p in want_params]
    assert len(log.records) == len(want_log.records)
    for rec, want in zip(log.records, want_log.records):
        assert (rec.iteration, repr(rec.loss), repr(rec.entropies),
                repr(rec.decode_loss)) == (
            want.iteration, repr(want.loss), repr(want.entropies),
            repr(want.decode_loss))


def train_until_divergence(problem, configs):
    """The finished ``(log, params)`` pairs and the divergence message, or
    None."""
    try:
        return train(problem, configs), None
    except optimizer.DivergenceError as exc:
        return exc.finished, str(exc)


def assert_batch_equals_serial(problem, configs):
    """One batch gives what the cells give trained one after another,
    stopping at the first that diverges; returns the batch's finished
    pairs and divergence message."""
    batch, failure = train_until_divergence(problem, configs)
    serial, serial_failure = [], None
    for config in configs:
        finished, serial_failure = train_until_divergence(problem, [config])
        serial += finished
        if serial_failure:
            break
    assert failure == serial_failure
    assert len(batch) == len(serial)
    for got, want in zip(batch, serial):
        assert_same_run(got, want)
    return batch, failure


MIXED_CELLS = [(est.NATURAL, 0.1, 1), (est.SEARCH, 0.05, 2),
               (est.VO, 0.1, 3), (est.NATURAL, 0.001, 2), (est.VO, 0.5, 1),
               (est.SEARCH, 0.1, 1)]


class TestBatch:
    def test_batch_equals_cells_trained_one_by_one(self):
        assert_batch_equals_serial(
            main_problem(), cell_configs(MIXED_CELLS, iterations=60,
                                         population=16, log_every=3))

    @pytest.mark.parametrize("transform", ["raw", "baseline", "standardize"])
    def test_every_transform_works_per_cell(self, transform):
        # the fitness is bounded, so raw weights keep the steps small
        assert_batch_equals_serial(
            mixed_problem(), cell_configs(MIXED_CELLS, iterations=40,
                                          population=16, log_every=3,
                                          fitness_transform=transform))

    def test_cells_of_one_seed_share_its_draws(self, monkeypatch):
        # three cells on seed 4 read one Generator, one cell on seed 9
        # its own
        plans = []

        def recording(*args):
            plans.append(DrawPlan(*args))
            return plans[-1]

        monkeypatch.setattr(optimizer, "DrawPlan", recording)
        assert_batch_equals_serial(
            main_problem(), cell_configs(
                [(est.NATURAL, 0.1, 4), (est.SEARCH, 0.05, 4),
                 (est.VO, 0.3, 9), (est.VO, 0.01, 4)],
                iterations=60, population=16, log_every=3))
        # the batch's plan: one call per hole of each seed's Generator
        assert len(plans[0].calls) == 2 * 6

    def test_cell_sharing_its_seed_diverges_mid_run(self):
        # the third cell of seed 1 diverges at its 24th step; it and the
        # seed-2 cell after it leave, and the two cells before it go on
        # reading the seed's Generator
        batch, failure = assert_batch_equals_serial(
            main_problem(), cell_configs(
                [(est.SEARCH, 0.05, 1), (est.VO, 0.05, 1),
                 (est.NATURAL, 0.1, 1), (est.SEARCH, 0.01, 2)],
                iterations=30, population=8, log_every=3,
                fitness_transform="baseline"))
        assert failure.startswith("out-of-range parameters for hole")
        assert len(batch) == 2
        assert all(log.records[-1].iteration == 28 for log, _ in batch)

    @settings(max_examples=20, deadline=None)
    @given(cells=st.lists(st.tuples(st.sampled_from(est.KINDS),
                                    st.sampled_from((0.3, 0.1, 0.01)),
                                    st.integers(0, 99)),
                          min_size=1, max_size=4),
           iterations=st.integers(1, 25),
           transform=st.sampled_from(("raw", "baseline", "standardize")))
    def test_random_cell_lists(self, cells, iterations, transform):
        assert_batch_equals_serial(
            main_problem(), cell_configs(cells, iterations=iterations,
                                         population=8, log_every=2,
                                         fitness_transform=transform))

    @pytest.mark.parametrize("setting,value", [
        ("iterations", 7), ("population", 9), ("log_every", 3),
        ("fitness_transform", "raw")])
    def test_cells_must_share_the_loop_settings(self, setting, value):
        configs = [TrainConfig(iterations=5),
                   replace(TrainConfig(iterations=5), **{setting: value})]
        with pytest.raises(ValueError, match=setting):
            train(bern_problem(), configs)
        with pytest.raises(ValueError):
            train(bern_problem(), [])


class CountingFitness:
    """A ``SpecFitness`` that records the shape of the draws of each
    call."""

    def __init__(self, fitness):
        self.fitness, self.calls = fitness, []

    def population(self, draws):
        self.calls.append(np.shape(draws))
        return self.fitness.population(draws)


class TestDecodeLog:
    def test_one_fitness_call_decodes_every_cell(self):
        problem = main_problem()
        problem.fitness = counting = CountingFitness(problem.fitness)
        cells = cell_configs(MIXED_CELLS[:3], iterations=1, population=8)
        train(problem, cells)
        # the estimate's population, then the decode of all three cells
        assert counting.calls == [(6, 3 * 8), (6, 3)]

    @pytest.mark.parametrize("problem", [main_problem, mixed_problem])
    def test_decode_loss_is_the_greedy_assignment_loss(self, problem):
        # iteration 21 is logged with log_every 2, and decoded
        problem = problem()
        pairs = train(problem, cell_configs(MIXED_CELLS, iterations=21,
                                            population=8, log_every=2))
        for log, final in pairs:
            greedy = np.array(greedy_decode(final), dtype=np.float64)
            assert log.records[-1].iteration == 21
            assert log.records[-1].decode_loss == -problem.fitness.population(
                greedy[:, None])[0]

    def test_decode_of_the_wrong_shape_rejected(self):
        """A fitness that scores the estimate's population right but the
        greedy assignments of two cells as one number is refused."""
        problem = BasicProblem(
            [BernoulliParams(0.5)] * 2,
            lambda xs: xs[0] if xs.shape[1] == 2 * 8 else xs[0].sum())
        configs = cell_configs([(est.SEARCH, 0.1, 1), (est.VO, 0.1, 2)],
                               iterations=1, population=8)
        with pytest.raises(ValueError, match=r"fitness returned shape \(\), "
                                             r"expected \(2,\)"):
            train(problem, configs)


def diverging_steps(schedule):
    """``sgd_step`` that poisons, on the ``schedule[lr]``-th step of the
    cells with learning rate ``lr``, the gradient of their hole 1 with NaN.
    Steps are counted once per call for each learning rate present, so a
    batch and one-cell runs count alike.  The loop steps with the gradient
    vector and one learning rate per vector position."""
    step = optimizer.sgd_step
    counts = dict.fromkeys(schedule, 0)

    def faulty(state, gradients, eta, hole_ids=None):
        layout = state.layout
        vector = gradients.copy()
        # a cell's learning rate is that of its first hole's first position
        holes = len(state) // layout.cell_count
        rates = [float(eta[layout.spans[cell * holes].start])
                 for cell in range(layout.cell_count)]
        for lr in set(rates) & set(schedule):
            counts[lr] += 1
        for cell, lr in enumerate(rates):
            if lr in schedule and counts[lr] == schedule[lr]:
                vector[layout.spans[cell * holes + 1]] *= np.nan
        return step(state, vector, eta, hole_ids)
    return faulty


def _files(out_dir):
    return {path.name: path.read_bytes() for path in out_dir.iterdir()
            if path.name != "config.txt"}  # the echo lists the batch


class TestBatchDivergence:
    ARMS, RATES, SEEDS = ("nes", "sg"), (0.1, 0.05, 0.01, 0.001), (1, 2)

    def test_one_distribution_is_made_for_the_error(self, monkeypatch):
        """A batch whose second cell diverges builds one per-hole
        distribution, the named hole's for its message: the cell before
        it goes on and comes out without per-hole objects."""
        made = []
        for block_type in (BernoulliBlock, CategoricalBlock, GaussianBlock):
            method = vars(block_type)["distribution"]

            def counted(*args, _distribution=method.__func__):
                made.append(args[-1].copy())
                return _distribution(*args)
            monkeypatch.setattr(block_type, "distribution",
                                type(method)(counted))
        configs = cell_configs([(est.NATURAL, 0.1, 1), (est.NATURAL, 1e30, 1),
                                (est.VO, 0.1, 2)],
                               iterations=20, population=8, log_every=2)
        with pytest.raises(optimizer.DivergenceError,
                           match="parameters for hole 'real") as failure:
            train(main_problem(), configs)
        exc = failure.value
        assert len(exc.finished) == 1
        assert len(made) == 1
        span = exc.state.layout.spans[exc.hole]
        assert made[0].tobytes() == exc.state.vector[span].tobytes()

    @pytest.mark.parametrize("schedule", [
        {0.01: 4},                # the fifth cell in order: four written
        {0.05: 9, 0.001: 2},      # a later cell fails first, then cell 3
        {0.1: 1},                 # the first cell: nothing written
    ])
    def test_same_error_and_files_as_one_cell_after_another(
            self, tmp_path, monkeypatch, schedule):
        config = TrainConfig(iterations=12, population=8, log_every=2)
        batch, serial = tmp_path / "batch", tmp_path / "serial"
        monkeypatch.setattr(optimizer, "sgd_step", diverging_steps(schedule))
        with pytest.raises(FloatingPointError) as batch_error:
            harness.run_ablation(self.SEEDS, str(batch), config=config,
                                 learning_rates=self.RATES, arms=self.ARMS)

        with pytest.raises(FloatingPointError) as serial_error:
            for arm in self.ARMS:
                for lr in self.RATES:
                    for seed in self.SEEDS:
                        monkeypatch.setattr(optimizer, "sgd_step",
                                            diverging_steps(schedule))
                        harness.run_ablation(
                            (seed,), str(serial), config=config,
                            learning_rates=(lr,), arms=(arm,))
        assert str(batch_error.value) == str(serial_error.value)
        assert "non-finite parameters for hole 'real" in str(
            batch_error.value)
        assert _files(batch) == _files(serial)
