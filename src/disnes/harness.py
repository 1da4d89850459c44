"""Experiment harness: the main induction run, the Fisher ablation sweep,
and their file outputs.

Every run writes, into its output directory: a per-iteration CSV log, the
rendered greedy-decoded program, a JSON parameter snapshot, and a
``config.txt`` echo of the fully-resolved configuration.  A ``summary.csv``
collects one row per run in deterministic (arm, lr, seed) order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import estimator as est
from .distributions import BernoulliParams, CategoricalParams, GaussianParams
from .optimizer import CONTINUOUS_KIND, TrainConfig, greedy_decode, train
from .sketch import Specification, SketchProblem, parse, render

MAIN_SKETCH = """\
fn prog_sketch(x: f32) -> f32
{
  if x [COND] [REAL]
  {
    return [REAL] [OP] x;
  }

  return x [OP] [REAL];
}
"""

TRUE_PROGRAM = """\
fn prog_true(x: f32) -> f32
{
  if x > 3.5
  {
    return 4.2 * x;
  }

  return x * 2.1;
}
"""

MAIN_SPEC = Specification(
    inputs=np.array([[1.0], [2.0], [4.0], [5.0]], dtype=np.float32),
    outputs=np.array([2.1, 4.2, 16.8, 21.0], dtype=np.float32),
)

# Two-input sweep task: same if/else shape, one comparison of an expression
# of both inputs against a constant, one operator and one constant per
# return expression.
ABLATION_SKETCH = """\
fn prog_sketch2(x: f32, y: f32) -> f32
{
  if x - y [COND] [REAL]
  {
    return x [OP] [REAL];
  }

  return y [OP] [REAL];
}
"""

ABLATION_SPEC = Specification(
    inputs=np.array([[5.8, 2.5], [5.0, 6.2], [7.4, 6.1], [5.5, 9.4]],
                    dtype=np.float32),
    outputs=np.array([14.1, -4.677419, 20.9, -5.287234], dtype=np.float32),
)

ABLATION_LEARNING_RATES = (0.1, 0.05, 0.01, 0.005, 0.001)

# arm name -> estimator kind for the discrete holes
ARM_KINDS = {"nes": est.NATURAL, "sg": est.SEARCH, "vo": est.VO}
MAIN_ARMS = ("nes", "vo")
ABLATION_ARMS = ("nes", "sg")

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


@dataclass
class RunResult:
    experiment: str
    arm: str
    learning_rate: float
    seed: int
    final_loss: float          # greedy-decode MSE
    final_outputs: np.ndarray  # f32 outputs of the decoded program
    program_text: str
    csv_path: str


def params_to_json(params_set, hole_ids):
    holes = []
    for hid, p in zip(hole_ids, params_set):
        if isinstance(p, BernoulliParams):
            holes.append({"id": hid, "family": "bernoulli", "theta": p.theta})
        elif isinstance(p, CategoricalParams):
            holes.append({"id": hid, "family": "categorical", "mode": p.mode,
                          "values": [float(v) for v in p.values]})
        else:
            holes.append({"id": hid, "family": "gaussian", "mu": p.mu,
                          "log_sigma": p.log_sigma})
    return json.dumps({"holes": holes}, indent=2) + "\n"


def params_from_json(text):
    """Inverse of :func:`params_to_json`; malformed text raises ValueError."""
    data = json.loads(text)
    hole_ids, params = [], []
    try:
        for h in data["holes"]:
            hole_ids.append(h["id"])
            if h["family"] == "bernoulli":
                params.append(BernoulliParams(h["theta"]))
            elif h["family"] == "categorical":
                params.append(CategoricalParams(np.array(h["values"]),
                                                mode=h["mode"]))
            elif h["family"] == "gaussian":
                params.append(GaussianParams(h["mu"], h["log_sigma"]))
            else:
                raise ValueError(f"unknown family {h['family']!r}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed params snapshot: {exc!r}") from exc
    return hole_ids, params


def run_single(experiment, arm, program, spec, config, out_dir):
    """Train one (arm, lr, seed) cell of a parsed sketch and persist its
    artifacts."""
    problem = SketchProblem(program, spec)
    config = replace(config, estimator_kind=ARM_KINDS[arm])
    log, params = train(problem, config)

    decoded = greedy_decode(params)
    assignment = dict(zip(problem.hole_ids(), decoded))
    outputs = problem.fitness.predicted_outputs(decoded)
    final_loss = float(problem.fitness.mean_squared_error(outputs))
    program_text = render(program, assignment)

    stem = f"{arm}_lr{config.learning_rate:g}_seed{config.seed}"
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, stem + ".csv")
    log.write_csv(csv_path)
    prog_path = os.path.join(out_dir, stem + "_program.txt")
    with open(prog_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(program_text)
    params_path = os.path.join(out_dir, stem + "_params.json")
    with open(params_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(params_to_json(params, problem.hole_ids()))

    return RunResult(experiment, arm, config.learning_rate, config.seed,
                     final_loss, outputs, program_text, csv_path)


def _write_config_echo(out_dir, entries):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        for key, value in entries:
            fh.write(f"{key}={value}\n")


def run_main(seed, out_dir, config=None, sketch_text=None, spec=None,
             arms=MAIN_ARMS):
    """Both arms of the single-input induction experiment for one seed.

    The sketch is parsed once, before anything is written, so a malformed
    one raises :class:`SketchError` with ``out_dir`` untouched.
    """
    config = config or TrainConfig(seed=seed)
    config = replace(config, seed=seed)
    program = parse(sketch_text or MAIN_SKETCH)
    spec = spec or MAIN_SPEC
    _write_config_echo(out_dir, [
        ("experiment", "main"),
        ("arms", ",".join(arms)),
        ("lr", repr(config.learning_rate)),
        ("iters", config.iterations),
        ("lambda", config.population),
        ("seed", seed),
        ("log_every", config.log_every),
        ("continuous_kind", CONTINUOUS_KIND),
        ("out", out_dir),
    ])
    return [run_single("main", arm, program, spec, config, out_dir)
            for arm in arms]


def run_ablation(seeds, out_dir, config=None, sketch_text=None, spec=None,
                 learning_rates=ABLATION_LEARNING_RATES, arms=ABLATION_ARMS):
    """Learning-rate sweep comparing explicit-Fisher vs plain score arms.

    The sketch is parsed once for the whole sweep, before anything is
    written.
    """
    config = config or TrainConfig()
    program = parse(sketch_text or ABLATION_SKETCH)
    spec = spec or ABLATION_SPEC
    _write_config_echo(out_dir, [
        ("experiment", "ablation"),
        ("arms", ",".join(arms)),
        ("lrs", ",".join(repr(lr) for lr in learning_rates)),
        ("iters", config.iterations),
        ("lambda", config.population),
        ("seeds", ",".join(str(s) for s in seeds)),
        ("log_every", config.log_every),
        ("continuous_kind", CONTINUOUS_KIND),
        ("out", out_dir),
    ])
    results = []
    for arm in arms:
        for lr in learning_rates:
            for seed in seeds:
                cell = replace(config, learning_rate=lr, seed=seed)
                results.append(run_single("ablation", arm, program, spec,
                                          cell, out_dir))
    return results


def emit_summary(results, path):
    """Summary CSV, one row per run, ordered by (arm, lr, seed)."""
    if not results:
        raise ValueError("no results to summarize")
    n_out = len(results[0].final_outputs)
    header = ["experiment", "arm", "lr", "seed", "final_loss"]
    header += [f"output_{i}" for i in range(n_out)]
    header.append("program_path")
    rows = sorted(results, key=lambda r: (r.arm, r.learning_rate, r.seed))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            cells = [r.experiment, r.arm, repr(r.learning_rate), str(r.seed),
                     repr(r.final_loss)]
            cells += [repr(float(v)) for v in r.final_outputs]
            cells.append(os.path.basename(r.csv_path).replace(
                ".csv", "_program.txt"))
            fh.write(",".join(cells) + "\n")
    return path
