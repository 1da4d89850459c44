import math
import warnings

import numpy as np
import pytest

from disnes.distributions import (
    EPS, LOGIT_MAX, LOGITS, PROBS,
    BernoulliParams, CategoricalBlock, CategoricalParams, DivergenceError,
    GaussianParams, ParamState, ProbsBlock,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSampling:
    def test_bernoulli_degenerate_limit(self):
        p = BernoulliParams(1.0 - 1e-9)
        xs = p.sample(rng(), size=1000)
        assert xs.min() == 1

    def test_categorical_frequencies_within_3_sigma(self):
        probs = np.array([0.2, 0.3, 0.5])
        p = CategoricalParams(probs, mode=PROBS)
        n = 100_000
        xs = p.sample(rng(1), size=n)
        counts = np.bincount(xs, minlength=3)
        se = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) <= 3 * se)

    def test_gaussian_mean_clt_bound(self):
        p = GaussianParams(0.0, 0.0)
        n = 100_000
        xs = p.sample(rng(2), size=n)
        assert abs(xs.mean()) <= 3.0 / math.sqrt(n)

    def test_same_rng_state_reproduces_samples(self):
        for p in [BernoulliParams(0.4),
                  CategoricalParams(np.array([0.1, 0.2, 0.7]), mode=PROBS),
                  GaussianParams(1.0, -0.5)]:
            a = p.sample(rng(7), size=50)
            b = p.sample(rng(7), size=50)
            assert np.array_equal(a, b)

    def test_categorical_sample_scalar_and_logits_mode(self):
        p = CategoricalParams(np.zeros(4), mode=LOGITS)
        x = p.sample(rng(3))
        assert isinstance(x, int) and 0 <= x < 4

    @pytest.mark.parametrize("p, dtype", [
        (BernoulliParams(0.4), np.int64),
        (CategoricalParams(np.array([0.1, 0.2, 0.7]), mode=PROBS), np.int64),
        (CategoricalParams(np.zeros(3), mode=LOGITS), np.int64),
        (GaussianParams(1.0, -0.5), np.float64),
    ], ids=["bernoulli", "probs", "logits", "gaussian"])
    def test_zero_draws_are_an_empty_array(self, p, dtype):
        a, b = rng(5), rng(5)
        xs = p.sample(a, size=0)
        assert xs.shape == (0,) and xs.dtype == dtype
        assert a.random() == b.random()  # no draw was read


class TestLogProb:
    def test_bernoulli_symmetric(self):
        assert BernoulliParams(0.5).log_prob(1) == pytest.approx(math.log(0.5))

    def test_categorical_probs_lookup(self):
        p = CategoricalParams(np.array([0.2, 0.3, 0.5]), mode=PROBS)
        assert p.log_prob(2) == pytest.approx(math.log(0.5))

    def test_categorical_uniform_logits(self):
        p = CategoricalParams(np.zeros(3), mode=LOGITS)
        assert p.log_prob(0) == pytest.approx(math.log(1 / 3))

    def test_normalization_over_support(self):
        r = rng(11)
        for _ in range(50):
            k = int(r.integers(2, 7))
            probs = r.dirichlet(np.ones(k))
            probs = np.clip(probs, 1e-4, None)
            probs = probs / probs.sum()
            for p in [CategoricalParams(probs, mode=PROBS),
                      CategoricalParams(np.log(probs), mode=LOGITS),
                      BernoulliParams(float(r.uniform(0.01, 0.99)))]:
                total = np.exp(p.log_prob(p.support)).sum()
                assert abs(total - 1.0) < 1e-6


class TestScore:
    def test_bernoulli_half(self):
        assert BernoulliParams(0.5).score(1) == pytest.approx([2.0])

    def test_categorical_logits_onehot_minus_p(self):
        p = CategoricalParams(np.log([0.2, 0.3, 0.5]), mode=LOGITS)
        assert p.score(2) == pytest.approx([-0.2, -0.3, 0.5])

    def test_gaussian_at_mean(self):
        assert GaussianParams(0.0, 0.0).score(0.0) == pytest.approx([0.0, -1.0])

    def test_probs_mode_partials(self):
        p = CategoricalParams(np.array([0.2, 0.3, 0.5]), mode=PROBS)
        assert p.score(1) == pytest.approx([0.0, 1.0 / 0.3, 0.0])

    def test_finite_difference_bernoulli(self):
        h = 1e-5
        for theta in [0.2, 0.5, 0.8]:
            for x in [0, 1]:
                fd = (BernoulliParams(theta + h).log_prob(x)
                      - BernoulliParams(theta - h).log_prob(x)) / (2 * h)
                s = BernoulliParams(theta).score(x)[0]
                assert abs(fd - s) <= 1e-4 * max(1.0, abs(s))

    def test_finite_difference_gaussian(self):
        h = 1e-5
        for mu, ls, x in [(0.0, 0.0, 0.7), (1.5, -0.4, 0.2), (-2.0, 0.3, -1.0)]:
            s = GaussianParams(mu, ls).score(x)
            fd_mu = (GaussianParams(mu + h, ls).log_prob(x)
                     - GaussianParams(mu - h, ls).log_prob(x)) / (2 * h)
            fd_ls = (GaussianParams(mu, ls + h).log_prob(x)
                     - GaussianParams(mu, ls - h).log_prob(x)) / (2 * h)
            assert abs(fd_mu - s[0]) <= 1e-4 * max(1.0, abs(s[0]))
            assert abs(fd_ls - s[1]) <= 1e-4 * max(1.0, abs(s[1]))


class TestNaturalScore:
    def test_bernoulli_symmetric(self):
        assert BernoulliParams(0.5).natural_score(1) == pytest.approx([0.5])

    def test_categorical_diag_p_times_score(self):
        p = CategoricalParams(np.array([0.25, 0.75]), mode=PROBS)
        assert p.natural_score(0) == pytest.approx([0.1875, -0.5625])


class TestFim:
    def test_bernoulli(self):
        assert BernoulliParams(0.5).fim() == pytest.approx([4.0])

    def test_categorical_diag(self):
        p = CategoricalParams(np.array([0.2, 0.3, 0.5]), mode=PROBS)
        assert p.fim() == pytest.approx([5.0, 10.0 / 3.0, 2.0])

    def test_categorical_inverse_is_probability_vector(self):
        p = CategoricalParams(np.array([0.2, 0.3, 0.5]), mode=PROBS)
        assert p.inverse_fim() == pytest.approx([0.2, 0.3, 0.5])

    def test_logits_mode_rejected(self):
        with pytest.raises(ValueError):
            CategoricalParams(np.zeros(3), mode=LOGITS).fim()

class TestProbGradient:
    def test_bernoulli_plus_minus_one(self):
        r = rng(12)
        for _ in range(20):
            p = BernoulliParams(float(r.uniform(0.05, 0.95)))
            assert p.prob_gradient(1) == pytest.approx([1.0])
            assert p.prob_gradient(0) == pytest.approx([-1.0])

    def test_categorical_logits(self):
        p = CategoricalParams(np.log([0.2, 0.3, 0.5]), mode=LOGITS)
        expected = 0.5 * np.array([-0.2, -0.3, 0.5])
        assert p.prob_gradient(2) == pytest.approx(expected)


def onehot_weights(block, x, formula):
    """A categorical block's ``(m, n, K)`` weights built from one-hot
    samples, element by element as the category tables must give them."""
    k = block.values.shape[1]
    onehot = x[:, :, None] == np.arange(k)
    p = block.p[:, None, :]
    if formula == "natural_score":
        return p * (onehot - p)
    if block.mode == LOGITS:
        score = onehot - p
    else:
        score = onehot / block.values[:, None, :]
    if formula == "score":
        return score
    p_x = np.take_along_axis(block.p, x.astype(np.intp), axis=1)
    return p_x[:, :, None] * score


def categorical_blocks(k, m, r):
    """A PROBS block with EPS-clamped probabilities and a LOGITS block
    whose softmax underflows to 0 in its first row."""
    probs = r.dirichlet(np.ones(k), size=m)
    probs[:, 0] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    ProbsBlock.project(probs)  # 0.0 becomes about EPS
    logits = r.normal(size=(m, k))
    logits[0, -1] = -800.0  # exp(-800 - max) is 0.0
    return [ProbsBlock(probs), CategoricalBlock(logits)]


class TestCategoryTables:
    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("formula",
                             ["score", "natural_score", "prob_gradient"])
    def test_weights_match_onehot_bit_for_bit(self, k, m, formula):
        r = rng(k * 10 + m)
        x = r.integers(0, k, size=(m, 40)).astype(np.float64)
        x[:, :k] = np.arange(k)  # every category is drawn
        blocks = categorical_blocks(k, m, r)
        assert blocks[0].p[:, 0].max() < 2 * EPS
        assert blocks[1].p[0, -1] == 0.0
        for block in blocks:
            got = getattr(block, formula)(x)
            want = onehot_weights(block, x, formula)
            assert got.dtype == want.dtype and got.shape == (m, 40, k)
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


class TestEntropy:
    def test_bernoulli_max(self):
        assert BernoulliParams(0.5).entropy() == pytest.approx(math.log(2))

    def test_categorical_uniform(self):
        p = CategoricalParams(np.full(4, 0.25), mode=PROBS)
        assert p.entropy() == pytest.approx(math.log(4))

    def test_categorical_degenerate_limit(self):
        eps = 1e-9
        p = CategoricalParams(np.log([1 - 2 * eps, eps, eps]), mode=LOGITS)
        assert p.entropy() < 1e-6

    def test_gaussian_differential(self):
        p = GaussianParams(3.0, 0.0)
        assert p.entropy() == pytest.approx(0.5 * math.log(2 * math.pi * math.e))

    def test_categorical_underflowed_probability_counts_zero(self):
        # a softmax over logits 1000 apart underflows to p = 0; its term is
        # 0 * log 0 = 0, not NaN (nor a RuntimeWarning)
        p = CategoricalParams(np.array([0.0, -1000.0, 0.0]), mode=LOGITS)
        assert p.probs()[1] == 0.0
        assert p.entropy() == CategoricalParams(
            np.zeros(2), mode=LOGITS).entropy() == math.log(2)

    def test_categorical_bits_kept_without_underflow(self):
        r = rng(21)
        for block in [CategoricalBlock(r.normal(size=(7, 6)) * 5),
                      ProbsBlock(r.dirichlet(np.ones(4), size=5))]:
            want = -(block.p * np.log(block.p)).sum(axis=1)
            assert block.entropy().tobytes() == want.tobytes()


class TestProjection:
    def test_bernoulli_clamp(self):
        p = BernoulliParams(0.999999).stepped(np.array([10.0]), 0.1)
        assert p.theta == pytest.approx(1.0 - EPS)

    def test_probs_renormalized(self):
        p = CategoricalParams(np.array([0.5, 0.5]), mode=PROBS)
        stepped = p.stepped(np.array([5.0, -5.0]), 0.1)
        assert abs(stepped.values.sum() - 1.0) < 1e-9
        assert np.all(stepped.values > 0)

    def test_invariants_under_fuzzed_steps(self):
        r = rng(21)
        params = [
            BernoulliParams(0.5),
            CategoricalParams(np.full(4, 0.25), mode=PROBS),
            CategoricalParams(np.zeros(6), mode=LOGITS),
            GaussianParams(0.0, 0.0),
        ]
        dims = [1, 4, 6, 2]
        for _ in range(2500):
            i = int(r.integers(0, len(params)))
            p = params[i]
            g = r.normal(scale=10.0, size=dims[i])
            p = p.stepped(g, float(r.uniform(0.001, 1.0)))
            params[i] = p
            if isinstance(p, BernoulliParams):
                assert EPS <= p.theta <= 1 - EPS
            elif isinstance(p, CategoricalParams) and p.mode == PROBS:
                assert np.all(p.values > 0) and np.all(p.values < 1)
                assert abs(p.values.sum() - 1.0) < 1e-6
            else:
                vals = (p.values if isinstance(p, CategoricalParams)
                        else np.array([p.mu, p.log_sigma]))
                assert np.all(np.isfinite(vals))


class TestGreedy:
    def test_bernoulli_tie_is_one(self):
        assert BernoulliParams(0.5).greedy() == 1

    def test_categorical_argmax(self):
        p = CategoricalParams(np.array([0.1, 0.8, 0.1]), mode=PROBS)
        assert p.greedy() == 1

    def test_gaussian_mean(self):
        assert GaussianParams(3.9859228, -1.0).greedy() == 3.9859228


class TestValidation:
    def test_bernoulli_bounds(self):
        with pytest.raises(ValueError):
            BernoulliParams(0.0)
        with pytest.raises(ValueError):
            BernoulliParams(1.0)

    def test_categorical_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CategoricalParams(np.array([0.5, 0.6]), mode=PROBS)

    def test_categorical_needs_two_categories(self):
        with pytest.raises(ValueError):
            CategoricalParams(np.array([1.0]), mode=PROBS)

    def test_gaussian_finite(self):
        with pytest.raises(ValueError):
            GaussianParams(float("nan"), 0.0)

    @pytest.mark.parametrize("mu,log_sigma", [
        (0.0, 800.0), (0.0, -800.0), (1e39, 0.0), (-1e39, 0.0),
    ])
    def test_gaussian_within_the_step_bounds(self, mu, log_sigma):
        # the bounds a step is checked against: sigma a positive normal
        # float, mu a finite f32
        with pytest.raises(ValueError, match="must lie in"):
            GaussianParams(mu, log_sigma)
        GaussianParams(np.finfo(np.float32).max, 709.0)

    @pytest.mark.parametrize("logit", [1e308, -1e308])
    def test_logits_within_the_step_bounds(self, logit):
        # the bounds a step is checked against: l - max(l) cannot overflow
        # within them
        with pytest.raises(ValueError, match="logits must lie in"):
            CategoricalParams(np.array([logit, 0.0, 0.0]), mode=LOGITS)
        edge = CategoricalParams(np.array([LOGIT_MAX, -LOGIT_MAX, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert edge.probs().tolist() == [1.0, 0.0, 0.0]


class TestEquality:
    def test_categorical_compares_by_value_and_mode(self):
        half = [0.5, 0.5]
        assert CategoricalParams([0.0, 1.0]) == CategoricalParams([0.0, 1.0])
        assert CategoricalParams([0.0, 1.0]) != CategoricalParams([0.0, 2.0])
        assert CategoricalParams([0.0, 1.0]) != CategoricalParams(
            [0.0, 1.0, 0.0])
        assert CategoricalParams(half, mode=PROBS) == CategoricalParams(
            half, mode=PROBS)
        assert CategoricalParams(half, mode=PROBS) != CategoricalParams(half)
        assert CategoricalParams(half) != BernoulliParams(0.5)
        assert ParamState.of([CategoricalParams([0.0, 1.0])])[0] \
            == CategoricalParams([0.0, 1.0])


class TestLogitBounds:
    def test_step_past_the_bound_is_out_of_range(self):
        p = CategoricalParams(np.array([LOGIT_MAX, 0.0, 0.0]), mode=LOGITS)
        with pytest.raises(DivergenceError,
                           match="out-of-range parameters for hole 0 "):
            p.stepped(np.array([1e300, 0.0, 0.0]), 1.0)
        with pytest.raises(DivergenceError,
                           match="out-of-range parameters for hole 1 "):
            ParamState.of([GaussianParams(0.0, 0.0), p]).stepped(
                np.array([0.0, 0.0, 0.0, -2 * LOGIT_MAX, 0.0]), 1.0)

    def test_a_step_to_the_bound_is_kept(self):
        p = CategoricalParams(np.zeros(3), mode=LOGITS)
        stepped = p.stepped(np.array([LOGIT_MAX, -LOGIT_MAX, 0.0]), 1.0)
        assert stepped.values.tolist() == [LOGIT_MAX, -LOGIT_MAX, 0.0]
