"""The three gradient estimators against the enumeration oracle.

For a small discrete params-set the exact gradient of E[f] is cheap to
enumerate, which makes the Monte Carlo estimators easy to sanity-check:
the search gradient and explicit-Fisher natural gradient are unbiased
for their respective targets, while the VO estimator weights each term
by an extra factor of pi(x) and so points somewhere systematically
different.
"""

from types import SimpleNamespace

import numpy as np

from disnes import (
    BernoulliParams, CategoricalParams, LOGITS,
    estimate_gradient, exact_gradient_oracle,
)
from disnes.estimator import KINDS


def main():
    rng = np.random.default_rng(1)
    params = [
        BernoulliParams(0.4),
        CategoricalParams(np.log([0.25, 0.35, 0.4]), mode=LOGITS),
    ]

    # scored on the (holes, n) draws matrix: one row of values per hole
    fitness = SimpleNamespace(
        population=lambda xs: 1.0 + 2.0 * xs[0] + 0.5 * xs[1]
        - 0.3 * xs[1] ** 2)

    lam = 2000
    for kind in KINDS:
        exact = exact_gradient_oracle(params, fitness, kind)
        estimate = estimate_gradient(params, fitness, lam, rng, kind)
        print(f"== {kind} (lambda={lam}) ==")
        for i, (e, g) in enumerate(zip(exact, estimate.gradients)):
            print(f"  hole {i}: exact    {np.round(e, 4)}")
            print(f"          estimate {np.round(g, 4)}")
        print()

    print("Bias of the estimators, averaged over 500 repeats (lambda=200):")
    for kind in KINDS:
        exact = exact_gradient_oracle(params, fitness, kind)
        means = [np.zeros_like(e) for e in exact]
        reps = 500
        for _ in range(reps):
            out = estimate_gradient(params, fitness, 200, rng, kind)
            for m, g in zip(means, out.gradients):
                m += g / reps
        err = max(float(np.abs(m - e).max()) for m, e in zip(means, exact))
        print(f"  {kind:8s} max |mean - exact| = {err:.4f}")


if __name__ == "__main__":
    main()
