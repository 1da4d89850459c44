"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (bypassing pytest's
capture) so the criteria can be eyeballed in any run's output.  The two
experiment-scale criteria train with the default configuration and
dominate the suite's runtime.
"""

import numpy as np
import pytest

from disnes import checks, cli, estimator as est, harness
from disnes.distributions import (
    LOGITS, PROBS, BernoulliParams, CategoricalParams,
)
from disnes.optimizer import TrainConfig
from disnes.sketch import COND_OPS, OP_OPS, parse, render


def _report(capsys, number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail and not ok:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, detail


def _details(failed):
    return "; ".join(f"{c.name}: {c.detail}" for c in failed)


class _Poly:
    """Random polynomial fitness over a (Bernoulli, categorical) pair,
    with the batched evaluation path the estimator prefers."""

    def __init__(self, rng):
        self.c = rng.normal(size=5)

    def _value(self, x0, x1):
        c = self.c
        return c[0] + c[1] * x0 + c[2] * x1 + c[3] * x1 ** 2 + c[4] * x0 * x1

    def __call__(self, xs):
        return float(self._value(float(xs[0]), float(xs[1])))

    def population(self, draws):
        return self._value(np.asarray(draws[0], dtype=float),
                           np.asarray(draws[1], dtype=float))


def test_criterion_1_estimator_unbiasedness(capsys):
    rng = np.random.default_rng(2024)
    failed = []
    for _ in range(20):
        params = [
            BernoulliParams(rng.uniform(0.1, 0.9)),
            CategoricalParams(rng.normal(size=rng.integers(2, 6)),
                              mode=LOGITS),
        ]
        for _ in range(3):
            fitness = _Poly(rng)
            for kind in est.KINDS:
                check = checks.estimator_vs_oracle(
                    rng, params, fitness, kind, estimates=200, lam=500)
                if not check.passed:
                    failed.append(check)
    _report(capsys, 1,
            "Monte Carlo estimates unbiased vs enumeration oracle "
            "(20 params-sets x 3 polynomials x 3 kinds, 4 SE)",
            not failed, _details(failed))


def test_criterion_2_fim_formulas(capsys):
    rng = np.random.default_rng(7)
    n = 100_000
    results = []
    for _ in range(10):
        p = BernoulliParams(rng.uniform(0.1, 0.9))
        results.append(checks.fim_consistency(rng, p, n))
    for _ in range(10):
        probs = rng.dirichlet(np.ones(rng.integers(2, 7)))
        probs = np.clip(probs, 0.05, None)
        probs = probs / probs.sum()
        results.append(checks.fim_consistency(
            rng, CategoricalParams(probs, mode=PROBS), n))
    failed = [c for c in results if not c.passed]
    _report(capsys, 2,
            "E[score^2] matches 1/(theta(1-theta)) and diag{1/theta_k} "
            "(10 random points each, 3 SE)", not failed, _details(failed))


def test_criterion_3_algebraic_identities(capsys):
    rng = np.random.default_rng(11)
    failed = [c for c in (checks.bernoulli_natural_times_fim(rng, 1000),
                          checks.categorical_natural_eq_diag_p(rng, 1000),
                          checks.vo_eq_prob_times_score(rng, 1000))
              if not c.passed]
    _report(capsys, 3,
            "natural/Fisher/VO identities exact over 1000 random cases each",
            not failed, _details(failed))


@pytest.fixture(scope="module")
def main_results(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("main"))
    results = []
    for seed in harness.DEFAULT_SEEDS:
        results += harness.run_main(seed, out)
    return results


def test_criterion_4_main_experiment(capsys, main_results):
    medians = {
        arm: float(np.median([r.final_loss for r in main_results
                              if r.arm == arm]))
        for arm in harness.MAIN_ARMS
    }
    ok = medians["nes"] <= 5.0 and medians["vo"] <= 10.0
    _report(capsys, 4,
            "median greedy-decode MSE over 5 seeds: "
            f"nes {medians['nes']:.6g} <= 5.0, vo {medians['vo']:.6g} <= 10.0",
            ok, str(medians))


def test_criterion_5_f32_ground_truth(capsys):
    from disnes.sketch import eval_program

    ast = parse(harness.TRUE_PROGRAM)
    outputs = harness.MAIN_SPEC.outputs
    got = np.array([eval_program(ast, {}, row)
                    for row in harness.MAIN_SPEC.inputs], dtype=np.float32)
    ok = (np.array_equal(got, outputs)
          and got.dtype == np.float32
          and [float(v) for v in got] == [2.0999999046325684, 4.199999809265137,
                                          16.799999237060547, 21.0])
    _report(capsys, 5,
            "prog_true reproduces [2.1, 4.2, 16.8, 21.0] bit-exactly in f32",
            ok, f"got {got}")


@pytest.fixture(scope="module")
def ablation_results(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ablation"))
    return harness.run_ablation(harness.DEFAULT_SEEDS, out,
                                learning_rates=(0.1, 0.001))


def test_criterion_6_ablation_direction(capsys, ablation_results):
    def median(arm, lr):
        return float(np.median([r.final_loss for r in ablation_results
                                if r.arm == arm and r.learning_rate == lr]))

    sg_low, nes_low = median("sg", 0.001), median("nes", 0.001)
    sg_high, nes_high = median("sg", 0.1), median("nes", 0.1)
    rel = abs(sg_high - nes_high) / max(abs(sg_high), abs(nes_high), 1e-12)
    ok = sg_low <= nes_low and rel < 0.20
    _report(capsys, 6,
            f"lr=0.001: sg {sg_low:.6g} <= nes {nes_low:.6g}; "
            f"lr=0.1: relative gap {rel:.3g} < 0.20", ok)


def test_criterion_7_parser_roundtrip_and_rendering(capsys):
    ok, detail = True, ""
    for text in (harness.MAIN_SKETCH, harness.TRUE_PROGRAM):
        ast = parse(text)
        if parse(render(ast)) != ast:
            ok, detail = False, "roundtrip mismatch"
    assignment = {
        "cond0": COND_OPS.index("<"),
        "real1": -1.5677981,
        "real2": 1.1321394,
        "op3": OP_OPS.index("*"),
        "op4": OP_OPS.index("*"),
        "real5": 3.9859228,
    }
    expected = """\
fn prog_output(x: f32) -> f32
{
  if x < -1.5677981
  {
    return 1.1321394 * x;
  }

  return x * 3.9859228;
}
"""
    got = render(parse(harness.MAIN_SKETCH), assignment)
    # compare modulo whitespace; the sketch keeps its own function name
    if got.replace("prog_sketch", "prog_output").split() != expected.split():
        ok, detail = False, f"render mismatch: {got!r}"
    _report(capsys, 7,
            "sketch listings roundtrip; learned assignment renders the "
            "reference program modulo whitespace", ok, detail)


def test_criterion_8_determinism(capsys, tmp_path):
    names = None
    contents = []
    for sub in ("first", "second"):
        out = str(tmp_path / sub)
        code = cli.main(["run-main", "--seed", "1", "--out", out])
        assert code == 0
        files = {}
        for arm in harness.MAIN_ARMS:
            for suffix in (".csv", "_program.txt"):
                name = f"{arm}_lr0.1_seed1{suffix}"
                files[name] = (tmp_path / sub / name).read_bytes()
        names = sorted(files)
        contents.append(files)
    ok = all(contents[0][n] == contents[1][n] for n in names)
    _report(capsys, 8,
            "run-main --seed 1 twice yields byte-identical CSVs and programs",
            ok)
