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
from dataclasses import dataclass, fields, replace

import numpy as np

from . import estimator as est
from .distributions import FAMILIES
from .optimizer import (
    CONTINUOUS_KIND, DivergenceError, TrainConfig, greedy_decode, train,
)
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
    holes = [{"id": hid, "family": p.family, **p.snapshot()}
             for hid, p in zip(hole_ids, params_set)]
    return json.dumps({"holes": holes}, indent=2) + "\n"


def params_from_json(text):
    """Inverse of :func:`params_to_json`; malformed text raises ValueError."""
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("params snapshot nested too deeply") from exc
    hole_ids, params = [], []
    try:
        for h in data["holes"]:
            hole_ids.append(h["id"])
            family = FAMILIES.get(h["family"])
            if family is None:
                raise ValueError(f"unknown family {h['family']!r}")
            values = {f.name: h[f.name] for f in fields(family)}
            if any(isinstance(v, bool) for value in values.values()
                   for v in (value if isinstance(value, list) else [value])):
                raise ValueError(f"hole {h['id']!r}: a JSON true or false "
                                 "where a number belongs")
            params.append(family(**values))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed params snapshot: {exc!r}") from exc
    return hole_ids, params


def _stem(arm, lr, seed):
    """The name, before its suffixes, of each file of the (arm, lr, seed)
    cell."""
    return f"{arm}_lr{lr:g}_seed{seed}"


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def run_single(experiment, arm, problem, config, log, params, out_dir):
    """Decode one trained (arm, lr, seed) cell and write its files into the
    existing directory ``out_dir``."""
    decoded = greedy_decode(params)
    outputs = problem.fitness.predicted_outputs(decoded)
    program_text = render(problem.program,
                          dict(zip(problem.hole_ids(), decoded)))
    path = os.path.join(out_dir, _stem(arm, config.learning_rate,
                                       config.seed))
    log.write_csv(path + ".csv")
    _write_text(path + "_program.txt", program_text)
    _write_text(path + "_params.json",
                params_to_json(params, problem.hole_ids()))
    return RunResult(experiment, arm, config.learning_rate, config.seed,
                     float(problem.fitness.mean_squared_error(outputs)),
                     outputs, program_text, path + ".csv")


def _run_cells(experiment, sketch_text, spec, cells, out_dir, echo):
    """Train the (arm, config) ``cells`` of ``experiment`` on the sketch
    ``sketch_text`` in one batch, and write each cell's files and a
    ``config.txt`` of the (key, value) ``echo`` lines into ``out_dir``.

    Nothing is written until the sketch is parsed and checked against
    ``spec`` (else :class:`SketchError`), ``cells`` is not empty (else
    ``ValueError``), every arm is one of ``ARM_KINDS`` (else
    ``ValueError`` naming it) and no two cells share a file stem (else
    ``ValueError`` naming it: the second's files would replace the
    first's).  If a cell diverges, the cells before it are written, as a
    run of one cell after another would have left them, before its error
    is raised.
    """
    problem = SketchProblem(parse(sketch_text), spec)
    if not cells:
        raise ValueError(f"the {experiment} experiment has no cells to run")
    for arm, _ in cells:
        if arm not in ARM_KINDS:
            raise ValueError(f"unknown arm {arm!r}; the arms are "
                             f"{', '.join(ARM_KINDS)}")
    stems = [_stem(arm, c.learning_rate, c.seed) for arm, c in cells]
    shared = [stem for i, stem in enumerate(stems) if stem in stems[:i]]
    if shared:
        raise ValueError(f"two cells would write the files {shared[0]}.*")
    os.makedirs(out_dir, exist_ok=True)
    echo = [("experiment", experiment), *echo,
            ("continuous_kind", CONTINUOUS_KIND), ("out", out_dir)]
    _write_text(os.path.join(out_dir, "config.txt"),
                "".join(f"{key}={value}\n" for key, value in echo))
    configs = [replace(config, estimator_kind=ARM_KINDS[arm])
               for arm, config in cells]
    failure = None
    try:
        trained = train(problem, configs)
    except DivergenceError as exc:
        failure, trained = exc, exc.finished
    results = [run_single(experiment, arm, problem, config, log, params,
                          out_dir)
               for (arm, _), config, (log, params)
               in zip(cells, configs, trained)]
    if failure is not None:
        raise failure
    return results


def run_main(seed, out_dir, config=None, sketch_text=None, spec=None,
             arms=MAIN_ARMS):
    """Both arms of the single-input induction experiment for one seed,
    trained in one batch.

    A malformed sketch, one of another arity, or an arm given twice raises
    before anything is written (see :func:`_run_cells`).
    """
    config = replace(config or TrainConfig(), seed=seed)
    echo = [("arms", ",".join(arms)), ("lr", repr(config.learning_rate)),
            ("iters", config.iterations), ("lambda", config.population),
            ("seed", seed), ("log_every", config.log_every)]
    return _run_cells("main", sketch_text or MAIN_SKETCH, spec or MAIN_SPEC,
                      [(arm, config) for arm in arms], out_dir, echo)


def run_ablation(seeds, out_dir, config=None, sketch_text=None, spec=None,
                 learning_rates=ABLATION_LEARNING_RATES, arms=ABLATION_ARMS):
    """Learning-rate sweep comparing explicit-Fisher vs plain score arms.

    Every (arm, lr, seed) cell trains in one batch.  A malformed sketch, or
    two cells whose files would share a name, raise before anything is
    written (see :func:`_run_cells`).
    """
    config = config or TrainConfig()
    cells = [(arm, replace(config, learning_rate=lr, seed=seed))
             for arm in arms for lr in learning_rates for seed in seeds]
    echo = [("arms", ",".join(arms)),
            ("lrs", ",".join(repr(lr) for lr in learning_rates)),
            ("iters", config.iterations), ("lambda", config.population),
            ("seeds", ",".join(str(s) for s in seeds)),
            ("log_every", config.log_every)]
    return _run_cells("ablation", sketch_text or ABLATION_SKETCH,
                      spec or ABLATION_SPEC, cells, out_dir, echo)


def emit_summary(results, path):
    """Summary CSV, one row per run, ordered by (arm, lr, seed)."""
    if not results:
        raise ValueError("no results to summarize")
    n_out = len(results[0].final_outputs)
    lines = [["experiment", "arm", "lr", "seed", "final_loss"]
             + [f"output_{i}" for i in range(n_out)] + ["program_path"]]
    for r in sorted(results, key=lambda r: (r.arm, r.learning_rate, r.seed)):
        program_path = _stem(r.arm, r.learning_rate, r.seed) + "_program.txt"
        lines.append([r.experiment, r.arm, repr(r.learning_rate), str(r.seed),
                      repr(r.final_loss)]
                     + [repr(float(v)) for v in r.final_outputs]
                     + [program_path])
    _write_text(path, "".join(",".join(line) + "\n" for line in lines))
    return path
