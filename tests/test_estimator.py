import numpy as np
import pytest

from disnes import estimator as est
from disnes.distributions import (
    LOGITS, PROBS, BernoulliParams, CategoricalParams, GaussianParams,
    DrawPlan, ParamState,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def draw(state, lam, rngs):
    """One population of ``state``, drawn from ``rngs``, one per cell."""
    return est.sample_population(state, DrawPlan(state.layout, rngs, lam))


def bern_cat_set():
    return [
        BernoulliParams(0.4),
        CategoricalParams(np.log([0.25, 0.35, 0.4]), mode=LOGITS),
    ]


class TestSearchGradient:
    def test_constant_fitness_zero_mean(self):
        params = bern_cat_set()
        lam = 100_000
        out = est.estimate_gradient(params, lambda xs: 3.0, lam, rng(1),
                                    est.SEARCH)
        for p, g in zip(params, out.gradients):
            # 3 * standard error of the mean of 3 * score
            scores = 3.0 * np.atleast_2d(p.score(p.sample(rng(2), size=lam)))
            se = scores.std(axis=0, ddof=1) / np.sqrt(lam)
            assert np.all(np.abs(g) <= 3.0 * se)

    def test_bernoulli_linear_fitness_unbiased_for_one(self):
        params = [BernoulliParams(0.3)]
        out = est.estimate_gradient(
            params, lambda xs: float(xs[0]), 100_000, rng(3), est.SEARCH)
        # E[f * score] = dE[f]/dtheta = 1 for f(x) = x
        assert out.gradients[0][0] == pytest.approx(1.0, abs=0.05)

    def test_categorical_onehot_payoff_matches_oracle(self):
        params = [CategoricalParams(np.zeros(3), mode=LOGITS)]

        def fitness(xs):
            return 1.0 if int(xs[0]) == 2 else 0.0

        exact = est.exact_gradient_oracle(params, fitness, est.SEARCH)[0]
        assert exact == pytest.approx([-1 / 9, -1 / 9, 2 / 9])
        out = est.estimate_gradient(params, fitness, 100_000, rng(4),
                                    est.SEARCH)
        assert out.gradients[0] == pytest.approx(exact, abs=0.01)


class TestNaturalGradient:
    def test_single_draw_bernoulli_term(self):
        # pick a seed whose single Bernoulli(0.5) draw is 1; the lone term
        # is then f * (x - theta) = 2 * (1 - 0.5)
        params = [BernoulliParams(0.5)]
        seed = next(s for s in range(100)
                    if BernoulliParams(0.5).sample(rng(s)) == 1)
        out = est.estimate_gradient(
            params, lambda xs: 2.0, 1, rng(seed), est.NATURAL)
        assert out.gradients[0][0] == pytest.approx(1.0)

    def test_equals_inverse_fim_times_search_on_shared_draws(self):
        params = bern_cat_set()
        fitness = lambda xs: 1.0 + float(xs[0]) - 0.5 * float(xs[1])
        nat = est.estimate_gradient(params, fitness, 500, rng(5), est.NATURAL)
        srch = est.estimate_gradient(params, fitness, 500, rng(5), est.SEARCH)
        for p, gn, gs in zip(params, nat.gradients, srch.gradients):
            assert gn == pytest.approx(p.inverse_fim() * gs, rel=1e-12)

    def test_categorical_single_term_arithmetic(self):
        p = CategoricalParams(np.array([0.25, 0.75]), mode=PROBS)
        # all draws land on category 0 with fitness 1
        term = p.natural_score(0)
        assert term == pytest.approx([0.1875, -0.5625])


class TestVoGradient:
    def test_constant_fitness_zero_expectation_at_symmetry(self):
        # the pi-weighted VO expectation sum(pi * f * grad pi) vanishes for
        # constant f at the symmetric parameter point
        params = [BernoulliParams(0.5)]
        exact = est.exact_gradient_oracle(params, lambda xs: 1.0, est.VO)[0]
        assert exact == pytest.approx([0.0], abs=1e-15)
        out = est.estimate_gradient(params, lambda xs: 1.0, 100_000, rng(6),
                                    est.VO)
        assert out.gradients[0] == pytest.approx([0.0], abs=0.02)

    def test_equals_search_with_extra_probability_factor(self):
        params = bern_cat_set()
        fitness = lambda xs: 2.0 + float(xs[1])
        vo = est.estimate_gradient(params, fitness, 200, rng(7), est.VO)
        # recompute by hand from the identical draws
        draws = draw(ParamState.of(params), 200, [rng(7)])
        fits = est.evaluate_fitnesses(fitness, draws, 200)
        for p, xs, gv in zip(params, draws, vo.gradients):
            probs = np.exp(p.log_prob(xs))
            manual = (fits * probs) @ np.atleast_2d(p.score(xs)) / 200
            assert gv == pytest.approx(manual, rel=1e-12)

    def test_bernoulli_half_linear_fitness(self):
        params = [BernoulliParams(0.5)]
        fitness = lambda xs: float(xs[0])
        exact = est.exact_gradient_oracle(params, fitness, est.VO)[0]
        assert exact == pytest.approx([0.5])
        out = est.estimate_gradient(params, fitness, 100_000, rng(9), est.VO)
        assert out.gradients[0] == pytest.approx(exact, abs=0.02)


class TestOracle:
    def test_constant_fitness_exact_zero_for_score_kinds(self):
        params = bern_cat_set()
        for kind in (est.SEARCH, est.NATURAL):
            exact = est.exact_gradient_oracle(params, lambda xs: 5.0, kind)
            for g in exact:
                assert g == pytest.approx(np.zeros_like(g), abs=1e-12)
        # VO's pi-weighting only cancels at symmetric parameter points
        uniform = [BernoulliParams(0.5),
                   CategoricalParams(np.zeros(3), mode=LOGITS)]
        for g in est.exact_gradient_oracle(uniform, lambda xs: 5.0, est.VO):
            assert g == pytest.approx(np.zeros_like(g), abs=1e-12)

    def test_bernoulli_linear_fitness(self):
        exact = est.exact_gradient_oracle(
            [BernoulliParams(0.3)], lambda xs: float(xs[0]), est.SEARCH)[0]
        assert exact == pytest.approx([1.0])

    def test_rejects_continuous(self):
        with pytest.raises(ValueError):
            est.exact_gradient_oracle(
                [GaussianParams(0.0, 0.0)], lambda xs: 0.0, est.SEARCH)

    def test_rejects_huge_support(self):
        params = [CategoricalParams(np.zeros(6), mode=LOGITS)] * 9
        with pytest.raises(ValueError):
            est.exact_gradient_oracle(params, lambda xs: 0.0, est.SEARCH)

    def test_hole_free_params_have_no_gradients(self):
        for kind in est.KINDS:
            assert est.exact_gradient_oracle([], lambda xs: 1.0, kind) == []

    @pytest.mark.parametrize("kind", est.KINDS)
    def test_population_only_fitness(self, kind):
        params = bern_cat_set() + [
            CategoricalParams(np.array([0.1, 0.2, 0.3, 0.4]), mode=PROBS)]

        class Batched:
            def population(self, draws):
                return 1.0 + draws[0] - 0.5 * draws[1] + (draws[2] == 2)

        def single(xs):
            return 1.0 + xs[0] - 0.5 * xs[1] + (xs[2] == 2)

        assert not callable(Batched())
        batched = est.exact_gradient_oracle(params, Batched(), kind)
        for got, want in zip(batched,
                             est.exact_gradient_oracle(params, single, kind)):
            assert got == pytest.approx(want, rel=0, abs=1e-12)


class TestPopulationMechanics:
    def test_shared_draws_across_kinds(self, monkeypatch):
        params = bern_cat_set()
        recorded = []
        orig = est.sample_population

        def recording(state, plan):
            draws = orig(state, plan)
            recorded.append(draws.copy())
            return draws

        monkeypatch.setattr(est, "sample_population", recording)
        calls = []

        def fitness(xs):
            calls.append(xs)
            return float(xs[0]) - float(xs[1])

        for kind in (est.SEARCH, est.NATURAL, est.VO):
            est.estimate_gradient(params, fitness, 40, rng(12), kind)
        assert len(calls) == 3 * 40  # exactly lam evaluations per estimate
        assert recorded[0].shape == (len(params), 40)
        for draws in recorded[1:]:
            assert np.array_equal(recorded[0], draws)

    @pytest.mark.parametrize("cells", [1, 3])
    def test_per_member_fitness_gets_integer_categories(self, cells):
        # the population is one float64 matrix, but a plain fitness callable
        # still sees each discrete hole's value as an integer
        params = bern_cat_set() + [GaussianParams(0.2, -0.1)]
        state = ParamState.joined([ParamState.of(params)] * cells)
        seen = []

        def fitness(xs):
            seen.append(xs)
            return float(xs[0]) + float(xs[1]) + float(xs[2])

        out = est.estimate_gradient(state, fitness, 6,
                                    [rng(c) for c in range(cells)],
                                    est.SEARCH)
        assert len(seen) == cells * 6
        for xs in seen:
            assert len(xs) == len(params)
            assert isinstance(xs[0], np.integer)
            assert isinstance(xs[1], np.integer)
            assert isinstance(xs[2], np.floating)
        draws = draw(state, 6, [rng(c) for c in range(cells)])
        # each hole is a group of its own, and the draws come in group
        # order: hole h of cell c is row h * cells + c
        members = [[draws[h * cells + c][i] for h in range(3)]
                   for c in range(cells) for i in range(6)]
        assert [[float(v) for v in xs] for xs in seen] == members
        assert out.fitnesses.tolist() == [sum(m) for m in members]

    def test_determinism(self):
        params = bern_cat_set() + [GaussianParams(0.2, -0.1)]
        fitness = lambda xs: float(xs[0]) + float(xs[2]) ** 2
        a = est.estimate_gradient(params, fitness, 64, rng(99), est.SEARCH)
        b = est.estimate_gradient(params, fitness, 64, rng(99), est.SEARCH)
        for ga, gb in zip(a.gradients, b.gradients):
            assert np.array_equal(ga, gb)

    def test_scale_equivariance(self):
        params = bern_cat_set()
        base = lambda xs: 1.5 + float(xs[1])
        scaled = lambda xs: 4.0 * base(xs)
        a = est.estimate_gradient(params, base, 128, rng(31), est.SEARCH)
        b = est.estimate_gradient(params, scaled, 128, rng(31), est.SEARCH)
        for ga, gb in zip(a.gradients, b.gradients):
            assert np.array_equal(4.0 * ga, gb)

    def test_nonfinite_fitness_replaced(self):
        params = [BernoulliParams(0.5)]

        def fitness(xs):
            return float("inf") if xs[0] > 0.5 else -2.0

        out = est.estimate_gradient(params, fitness, 200, rng(40), est.SEARCH)
        assert np.all(np.isfinite(out.fitnesses))
        assert out.fitnesses.max() <= -2.0  # inf replaced by worst - 1

    def test_degenerate_population_flagged(self):
        params = [BernoulliParams(0.5)]
        out = est.estimate_gradient(params, lambda xs: 7.0, 50, rng(41), est.SEARCH)
        assert out.degenerate
        out = est.estimate_gradient(
            params, lambda xs: float(xs[0]), 50, rng(41), est.SEARCH)
        assert not out.degenerate

    def test_degenerate_cells_counted_per_cell(self):
        """Cells 1 and 2 draw only Gaussian values far below -100, where
        the fitness is constant; cell 0 draws varied fitnesses."""
        cells = [ParamState.of([BernoulliParams(0.5), GaussianParams(mu, 0.0)])
                 for mu in (0.0, -1000.0, -1000.0)]
        state = ParamState.joined(cells)
        fitness = lambda xs: 7.0 if xs[1] < -100.0 else float(xs[1])
        out = est.estimate_gradient(
            state, fitness, 16, [rng(c) for c in range(3)], est.SEARCH)
        assert out.degenerate == 2
        assert out.degenerate is out.__dict__["degenerate"]  # kept
        out = est.estimate_gradient(
            state, lambda xs: 0.0, 16, [rng(c) for c in range(3)],
            est.SEARCH)
        assert out.degenerate == 3

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            est.estimate_gradient(
                bern_cat_set(), lambda xs: 0.0, 0, rng(0), est.SEARCH)

    def test_plans_must_be_made_for_the_state_and_lam(self):
        """The plan forms of ``rng`` and ``kinds`` give what the plain
        forms give, and a plan made for another layout (even one with the
        same holes) or a draw plan made for another lam is refused."""
        params = bern_cat_set()
        state, other = ParamState.of(params), ParamState.of(params)
        fitness = lambda xs: float(xs[0]) - float(xs[1])
        want = est.estimate_gradient(state, fitness, 8, rng(3), est.SEARCH)
        got = est.estimate_gradient(
            state, fitness, 8, DrawPlan(state.layout, [rng(3)], 8),
            est.KindPlan(state.layout, est.SEARCH))
        assert np.array_equal(got.vector, want.vector)
        for plans in ((DrawPlan(other.layout, [rng(3)], 8), est.SEARCH),
                      (rng(3), est.KindPlan(other.layout, est.SEARCH)),
                      (DrawPlan(state.layout, [rng(3)], 9), est.SEARCH)):
            with pytest.raises(ValueError, match="another layout or lam"):
                est.estimate_gradient(state, fitness, 8, *plans)

    @pytest.mark.parametrize("count, bare", [(1, True), (1, False),
                                             (3, False)])
    def test_one_generator_per_cell(self, count, bare):
        """A two-cell state refuses a bare Generator, or a list of one too
        few or too many, naming both counts."""
        cell = ParamState.of([BernoulliParams(0.5)])
        state = ParamState.joined([cell, cell])
        fitness = lambda xs: float(xs[0])
        rngs = rng(0) if bare else [rng(c) for c in range(count)]
        with pytest.raises(ValueError,
                           match=f"^{count} Generators for 2 cells$"):
            est.estimate_gradient(state, fitness, 4, rngs, est.SEARCH)
        est.estimate_gradient(state, fitness, 4, [rng(0), rng(1)], est.SEARCH)

    def test_one_generator_for_two_cells_draws_once(self):
        """A Generator given for two cells is drawn from once per
        estimate: both cells see the draws a one-cell estimate sees, and
        the Generator moves on as that one-cell estimate's does."""
        params = bern_cat_set() + [GaussianParams(0.2, -0.1)]
        state = ParamState.joined([ParamState.of(params)] * 2)
        fitness = lambda xs: float(xs[0]) + float(xs[1]) - float(xs[2]) ** 2
        shared, alone = rng(5), rng(5)
        for _ in range(3):
            both = est.estimate_gradient(state, fitness, 8, [shared, shared],
                                         est.VO)
            one = est.estimate_gradient(params, fitness, 8, alone, est.VO)
            assert np.array_equal(both.fitnesses, np.tile(one.fitnesses, 2))
            assert np.array_equal(both.vector[state.layout.cells[1][1]],
                                  one.vector)
            assert np.array_equal(both.vector[state.layout.cells[0][1]],
                                  one.vector)
            assert (shared.bit_generator.state
                    == alone.bit_generator.state)
