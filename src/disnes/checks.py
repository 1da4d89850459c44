"""The check list: Monte Carlo and algebraic checks on the distribution and
estimator layers.

Each check is one function of an rng and its sizes (and, for the Monte
Carlo checks, the point it is made at) that returns a :class:`Check`.
``disnes verify`` runs :func:`check_list` on one rng; acceptance criteria
1-3 call the same functions at their own seeds and random points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import estimator as est
from .distributions import (
    BernoulliParams, CategoricalParams, DrawPlan, GaussianParams, LOGITS,
    PROBS, ParamState,
)


# the sizes and seed ``disnes verify`` runs the check list at by default
SAMPLES, CASES, ESTIMATES, SEED = 100_000, 1000, 200, 0


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def _mean_and_se(rows):
    rows = np.asarray(rows)
    return rows.mean(axis=0), rows.std(axis=0, ddof=1) / np.sqrt(len(rows))


def score_zero_mean(rng, params, samples):
    """E[score] = 0 to 3 standard errors.  A categorical must use LOGITS:
    the PROBS partials ignore the simplex constraint and are not zero-mean."""
    mean, se = _mean_and_se(params.score(params.sample(rng, size=samples)))
    return Check(f"score-zero-mean/{params.family}",
                 bool(np.all(np.abs(mean) <= 3.0 * se + 1e-12)),
                 f"mean={mean}, 3se={3 * se}")


def fim_consistency(rng, params, samples):
    """E[score^2] matches the closed-form Fisher diagonal, 1/(theta(1-theta))
    for a Bernoulli and 1/p for a PROBS categorical, to 3 standard errors,
    and ``fim()`` returns that closed form."""
    if isinstance(params, BernoulliParams):
        expected = np.array([1.0 / (params.theta * (1.0 - params.theta))])
    else:
        expected = 1.0 / params.values
    sq = np.atleast_2d(params.score(params.sample(rng, size=samples))) ** 2
    mean, se = _mean_and_se(sq)
    ok = (np.all(np.abs(mean - expected) <= 3.0 * se)
          and np.allclose(params.fim(), expected, rtol=1e-12, atol=0.0))
    return Check(f"fim-consistency/{params.family}", bool(ok),
                 f"observed={mean}, expected={expected}, "
                 f"fim()={params.fim()}, 3se={3 * se}")


def _identity(name, cases, case, rtol, atol):
    """Passes when ``case()`` returns ``lhs, rhs`` that agree on each of
    ``cases`` random draws; stops at the first draw where they differ."""
    for _ in range(cases):
        lhs, rhs = case()
        if not np.allclose(lhs, rhs, rtol=rtol, atol=atol):
            return Check(name, False, f"{lhs} != {rhs}")
    return Check(name, True)


def _random_probs(rng, k):
    probs = np.clip(rng.dirichlet(np.ones(k)), 1e-3, None)
    return probs / probs.sum()


def bernoulli_natural_times_fim(rng, cases):
    """natural_score(x) * F = score(x) for a Bernoulli."""
    def case():
        p = BernoulliParams(rng.uniform(0.05, 0.95))
        x = int(rng.integers(0, 2))
        return p.natural_score(x) * p.fim(), p.score(x)
    return _identity("identity/bernoulli-natural-times-fim", cases, case,
                     rtol=1e-12, atol=1e-12)


def categorical_natural_eq_invfim_score(rng, cases):
    """The PROBS natural score equals F^-1 times the LOGITS score."""
    def case():
        probs = _random_probs(rng, rng.integers(2, 7))
        x = int(rng.integers(0, probs.size))
        prob_p = CategoricalParams(probs, mode=PROBS)
        logit_p = CategoricalParams(np.log(probs), mode=LOGITS)
        return prob_p.natural_score(x), prob_p.inverse_fim() * logit_p.score(x)
    return _identity("identity/categorical-natural-eq-invfim-score", cases,
                     case, rtol=1e-10, atol=1e-12)


def categorical_natural_eq_diag_p(rng, cases):
    """The PROBS natural score equals diag(p) (onehot(x) - p)."""
    def case():
        probs = _random_probs(rng, rng.integers(2, 7))
        x = int(rng.integers(0, probs.size))
        return (CategoricalParams(probs, mode=PROBS).natural_score(x),
                probs * (np.eye(probs.size)[x] - probs))
    return _identity("identity/categorical-natural-eq-diag-p", cases, case,
                     rtol=1e-12, atol=1e-15)


def vo_eq_prob_times_score(rng, cases):
    """The VO term, the gradient of p(x), equals p(x) times the score."""
    def case():
        probs = _random_probs(rng, 3)
        x = int(rng.integers(0, 3))
        p = CategoricalParams(np.log(probs), mode=LOGITS)
        return p.prob_gradient(x), probs[x] * p.score(x)
    return _identity("identity/vo-term-eq-prob-times-score", cases, case,
                     rtol=1e-12, atol=1e-15)


def categorical_k2_vs_bernoulli(rng, cases):
    """A K=2 categorical with p = [1-theta, theta], success mapped to
    category 1, reduces to a Bernoulli(theta): the LOGITS search gradient's
    success coordinate is the Bernoulli natural gradient Cov(f, x), and the
    PROBS natural gradient carries an extra diag(p).  The gradients are
    enumerated exactly, so only theta is drawn."""
    f = SimpleNamespace(population=lambda xs: 0.25 + 2.0 * xs[0])

    def case():
        theta = rng.uniform(0.05, 0.95)
        p = np.array([1.0 - theta, theta])
        bern = est.exact_gradient_oracle(
            [BernoulliParams(theta)], f, est.NATURAL)[0][0]
        search = est.exact_gradient_oracle(
            [CategoricalParams(np.log(p), mode=LOGITS)], f, est.SEARCH)[0]
        natural = est.exact_gradient_oracle(
            [CategoricalParams(p, mode=PROBS)], f, est.NATURAL)[0]
        return (np.concatenate([search, natural]),
                np.array([-bern, bern, -p[0] * bern, p[1] * bern]))
    return _identity("equivalence/categorical-k2-vs-bernoulli", cases, case,
                     rtol=1e-12, atol=1e-8)


def estimator_vs_oracle(rng, params_set, fitness, kind, estimates, lam):
    """The mean of ``estimates`` Monte Carlo estimates, each from ``lam``
    draws, matches the enumeration oracle to 4 standard errors.  The
    estimates share one state and its plans, as the training loop's do."""
    exact = est.exact_gradient_oracle(params_set, fitness, kind)
    state = ParamState.of(params_set)
    draws = DrawPlan(state.layout, [rng], lam)
    kinds = est.KindPlan(state.layout, kind)
    reps = [est.estimate_gradient(state, fitness, lam, draws, kinds)
            for _ in range(estimates)]
    name = f"estimator-vs-oracle/{kind}"
    for i, e in enumerate(exact):
        mean, se = _mean_and_se([r.gradients[i] for r in reps])
        if not np.all(np.abs(mean - e) <= 4.0 * se + 1e-12):
            return Check(name, False,
                         f"hole {i}: mean={mean}, exact={e}, 4se={4 * se}")
    return Check(name, True)


# a fitness of a (Bernoulli, categorical) pair, scored row by row
_ORACLE_FITNESS = SimpleNamespace(
    population=lambda xs: 1.0 + 2.0 * xs[0] + 0.5 * xs[1] - 0.3 * xs[1] ** 2)


def check_list(samples=SAMPLES, cases=CASES, estimates=ESTIMATES):
    """The checks ``disnes verify`` runs, in order, each a function of an
    rng that returns a :class:`Check`."""
    oracle_set = [BernoulliParams(0.4),
                  CategoricalParams(np.log([0.25, 0.35, 0.4]), mode=LOGITS)]
    return (
        [partial(score_zero_mean, params=p, samples=samples) for p in (
            BernoulliParams(0.3),
            CategoricalParams(np.log([0.2, 0.3, 0.5]), mode=LOGITS),
            GaussianParams(0.7, -0.2))]
        + [partial(fim_consistency, params=p, samples=samples) for p in (
            BernoulliParams(0.35),
            CategoricalParams(np.array([0.2, 0.3, 0.5]), mode=PROBS))]
        + [partial(check, cases=cases) for check in (
            bernoulli_natural_times_fim, categorical_natural_eq_invfim_score,
            categorical_natural_eq_diag_p, vo_eq_prob_times_score,
            categorical_k2_vs_bernoulli)]
        + [partial(estimator_vs_oracle, params_set=oracle_set,
                   fitness=_ORACLE_FITNESS, kind=kind, estimates=estimates,
                   lam=500) for kind in est.KINDS])


def verify(samples=SAMPLES, cases=CASES, oracle_estimates=ESTIMATES,
           seed=SEED):
    """Run the check list on one rng; returns a list of :class:`Check`."""
    rng = np.random.default_rng(seed)
    return [check(rng) for check in check_list(samples, cases,
                                                oracle_estimates)]


def format_report(checks):
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"[{status}] {c.name}"
        if c.detail and not c.passed:
            line += f"  ({c.detail})"
        lines.append(line)
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
