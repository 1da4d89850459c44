"""The check list behind ``disnes verify`` and acceptance criteria 1-3:
every check passes on the real code, and each one can fail."""

import numpy as np
import pytest

from disnes import checks, estimator as est
from disnes.distributions import (
    BernoulliParams, CategoricalBlock, CategoricalParams, GaussianParams,
    ParamState,
)

CHECKS = checks.check_list()


def _check_id(check):
    kw = check.keywords
    if "kind" in kw:
        return f"{check.func.__name__}/{kw['kind']}"
    if "params" in kw:
        return f"{check.func.__name__}/{type(kw['params']).__name__}"
    return check.func.__name__


@pytest.mark.parametrize("check", CHECKS, ids=[_check_id(c) for c in CHECKS])
def test_check_passes(check):
    result = check(np.random.default_rng(0))
    assert result.passed, f"{result.name}: {result.detail}"


def _negated(method):
    return lambda self, *args: -method(self, *args)


def _biased_sampler(state, plan):
    """Draws the population from distributions shifted toward the last
    category, through the same plan and noise: an estimator fed these is
    biased."""
    def shifted(p):
        if isinstance(p, BernoulliParams):
            return BernoulliParams(min(p.theta + 0.1, 0.99))
        return CategoricalParams(p.values + np.eye(p.k)[-1], mode=p.mode)
    return plan.sample(ParamState.of([shifted(p) for p in state]).blocks)


# A fault in a per-hole method reaches the enumeration oracle, which works
# per hole, but not the Monte Carlo estimator, which runs the block
# formulas, so estimator-vs-oracle trips as well.  A fault in a block
# formula reaches both, like any fault did before blocks existed.
FAULTS = {
    "score-offset": (
        GaussianParams, "score",
        lambda orig: lambda self, x: orig(self, x) + 0.1,
        ["score-zero-mean/gaussian"]),
    "fim-negated": (
        (BernoulliParams, CategoricalParams), "fim", _negated,
        ["fim-consistency/bernoulli", "fim-consistency/categorical",
         "identity/bernoulli-natural-times-fim"]),
    "natural-score-is-score": (
        CategoricalParams, "natural_score",
        lambda orig: CategoricalParams.score,
        ["equivalence/categorical-k2-vs-bernoulli",
         "estimator-vs-oracle/natural",
         "identity/categorical-natural-eq-diag-p",
         "identity/categorical-natural-eq-invfim-score"]),
    "block-natural-score-is-score": (
        CategoricalBlock, "natural_score",
        lambda orig: CategoricalBlock.score,
        ["equivalence/categorical-k2-vs-bernoulli",
         "identity/categorical-natural-eq-diag-p",
         "identity/categorical-natural-eq-invfim-score"]),
    "vo-term-without-p": (
        CategoricalParams, "prob_gradient",
        lambda orig: CategoricalParams.score,
        ["estimator-vs-oracle/vo", "identity/vo-term-eq-prob-times-score"]),
    "biased-population": (
        est, "sample_population", lambda orig: _biased_sampler,
        sorted(f"estimator-vs-oracle/{kind}" for kind in est.KINDS)),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_trips_exactly_its_checks(monkeypatch, fault):
    owners, attr, make, expected = FAULTS[fault]
    for owner in owners if isinstance(owners, tuple) else (owners,):
        monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
    results = checks.verify(samples=30_000, cases=200, oracle_estimates=60,
                            seed=0)
    assert sorted(c.name for c in results if not c.passed) == expected
