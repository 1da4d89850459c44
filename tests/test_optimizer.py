import numpy as np
import pytest

from disnes import estimator as est
from disnes.distributions import (
    EPS, LOGITS, PROBS, BernoulliParams, CategoricalParams, GaussianParams,
)
from disnes.optimizer import (
    TrainConfig, TrainingLog, greedy_decode, initial_params, sgd_step, train,
)


class BasicProblem:
    """Train directly over a fixed params-set with an arbitrary fitness:
    distribution-level problems (one-max and friends) with no program
    sketch behind them."""

    def __init__(self, params_set, fitness, hole_ids=None):
        self._params = [p.copy() for p in params_set]
        self.fitness = fitness
        self._hole_ids = list(hole_ids) if hole_ids else [
            f"h{i}" for i in range(len(params_set))]

    def params(self, categorical_mode=LOGITS):
        out = []
        for p in self._params:
            if isinstance(p, CategoricalParams) and p.mode != categorical_mode:
                probs = p.probs()
                values = probs if categorical_mode == PROBS else np.log(probs)
                out.append(CategoricalParams(values, mode=categorical_mode))
            else:
                out.append(p.copy())
        return out

    def hole_ids(self):
        return list(self._hole_ids)


def onemax(xs):
    return float(sum(xs))


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
    ], ids=["bernoulli", "categorical_probs", "categorical_logits",
            "gaussian"])
    def test_divergent_step_raises_naming_the_hole(self, params, gradient):
        with pytest.raises(FloatingPointError, match="hole 'h7'"):
            sgd_step([params], [np.array(gradient)], 0.1, hole_ids=["h7"])
        with pytest.raises(FloatingPointError, match="hole 0 "):
            sgd_step([params], [np.array(gradient)], 0.1)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sgd_step([BernoulliParams(0.5)], [], 0.1)

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
        log, params = train(bern_problem(), cfg)
        assert len(log.records) == 1
        assert log.records[0].iteration == 1
        assert log.records[0].decode_loss is not None
        assert len(params) == 8

    def test_divergence_raises_floating_point_error_naming_the_hole(
            self, monkeypatch):
        estimate_gradient = est.estimate_gradient

        def diverging(*args, **kwargs):
            estimate = estimate_gradient(*args, **kwargs)
            estimate.gradients[1] = estimate.gradients[1] * np.nan
            return estimate

        monkeypatch.setattr(est, "estimate_gradient", diverging)
        problem = BasicProblem([BernoulliParams(0.5), GaussianParams(0.0, 0.0)],
                               lambda xs: -float(xs[1]) ** 2,
                               hole_ids=["flag", "shift"])
        with pytest.raises(FloatingPointError, match="hole 'shift'"):
            train(problem, TrainConfig(iterations=2, population=4))

    def test_record_count_matches_log_every(self):
        cfg = TrainConfig(iterations=95, log_every=10, seed=3, population=8)
        log, _ = train(bern_problem(), cfg)
        assert [r.iteration for r in log.records] == list(range(1, 96, 10))
        with_decode = [r for r in log.records if r.decode_loss is not None]
        assert len(with_decode) == 1  # only iteration 1 hits every*10

    def test_onemax_converges(self):
        cfg = TrainConfig(iterations=200, learning_rate=0.1, population=32,
                          seed=11)
        _, params = train(bern_problem(), cfg)
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
                _, params = train(bern_problem(n=4), cfg)
                thetas += [p.theta for p in params]
            medians.append(np.median(thetas))
        assert all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))
        assert medians[-1] > 0.9

    def test_search_and_natural_agree_on_onemax(self):
        for kind in (est.SEARCH, est.NATURAL):
            cfg = TrainConfig(iterations=300, learning_rate=0.05,
                              population=32, seed=5, estimator_kind=kind)
            _, params = train(bern_problem(n=4), cfg)
            assert greedy_decode(params) == [1, 1, 1, 1]

    def test_categorical_problem_decodes_argmax(self):
        target = 2

        def fitness(xs):
            return 1.0 if int(xs[0]) == target else 0.0

        problem = BasicProblem(
            [CategoricalParams(np.zeros(4), mode=LOGITS)], fitness)
        cfg = TrainConfig(iterations=300, learning_rate=0.1, population=32,
                          seed=8)
        _, params = train(problem, cfg)
        assert greedy_decode(params) == [target]

    def test_decode_invariant_under_fitness_scaling(self):
        scaled = BasicProblem(
            [BernoulliParams(0.5) for _ in range(6)],
            lambda xs: 4.0 * onemax(xs))
        cfg = TrainConfig(iterations=150, population=32, seed=13)
        _, pa = train(bern_problem(n=6), cfg)
        _, pb = train(scaled, cfg)
        assert greedy_decode(pa) == greedy_decode(pb)

    def test_determinism(self):
        cfg = TrainConfig(iterations=40, seed=21, population=16)
        la, pa = train(bern_problem(), cfg)
        lb, pb = train(bern_problem(), cfg)
        assert la.to_csv() == lb.to_csv()
        assert [p.theta for p in pa] == [p.theta for p in pb]

    def test_loss_is_negated_mean_fitness(self):
        cfg = TrainConfig(iterations=1, seed=2, population=16)
        log, _ = train(bern_problem(n=3), cfg)
        # one-max fitness lies in [0, 3], so the logged loss must be in [-3, 0]
        assert -3.0 <= log.records[0].loss <= 0.0

    def test_gaussian_quadratic_bowl(self):
        problem = BasicProblem(
            [GaussianParams(4.0, 0.0)],
            lambda xs: -float(xs[0] - 1.0) ** 2)
        cfg = TrainConfig(iterations=500, learning_rate=0.1, population=32,
                          seed=4)
        _, params = train(problem, cfg)
        assert params[0].mu == pytest.approx(1.0, abs=0.1)
        assert params[0].sigma < 0.2  # variance collapses onto the optimum

    def test_natural_mode_carries_probs_params(self):
        problem = BasicProblem(
            [CategoricalParams(np.zeros(3), mode=LOGITS)], lambda xs: 0.0)
        cfg_nat = TrainConfig(estimator_kind=est.NATURAL)
        cfg_srch = TrainConfig(estimator_kind=est.SEARCH)
        assert initial_params(problem, cfg_nat)[0].mode == PROBS
        assert initial_params(problem, cfg_srch)[0].mode == LOGITS

    def test_params_snapshots_are_copies(self):
        cfg = TrainConfig(iterations=15, log_every=1, seed=6, population=8)
        log, final = train(bern_problem(n=2), cfg)
        thetas = [rec.params[0].theta for rec in log.records]
        assert len(set(thetas)) > 1  # snapshots track the trajectory
        assert log.records[-1].params[0].theta == final[0].theta


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"iterations": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -0.1},
        {"population": 0},
        {"log_every": 0},
        {"fitness_transform": "clip"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestCsv:
    def test_header_and_rows(self):
        cfg = TrainConfig(iterations=11, log_every=10, seed=9, population=8)
        problem = BasicProblem(
            [BernoulliParams(0.5), GaussianParams(0.0, 0.0)],
            lambda xs: float(xs[0]) - xs[1] ** 2,
            hole_ids=["flag", "knob"])
        log, _ = train(problem, cfg)
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
        log, _ = train(bern_problem(n=2), cfg)
        lines = log.to_csv().strip().split("\n")
        for rec, line in zip(log.records, lines[1:]):
            fields = line.split(",")
            assert float(fields[1]) == rec.loss  # repr() preserves the float

    def test_write_csv(self, tmp_path):
        cfg = TrainConfig(iterations=1, seed=1, population=8)
        log, _ = train(bern_problem(n=2), cfg)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        assert path.read_text(encoding="utf-8") == log.to_csv()
