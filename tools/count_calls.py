"""Count the Python calls that one training iteration makes.

Trains one batch for ITERATIONS iterations under cProfile, then prints the
total call count and the calls per iteration.  BATCH names the batch:

* ``main`` (the default): the default ``disnes run-main`` batch, arms nes
  and vo on the main sketch, seed 1;
* ``ablation``: the default ``disnes run-ablation`` batch, arms nes and sg
  times its five learning rates on the ablation sketch, seed 1 (10 cells);
* ``mixed``: arms sg and vo on the main sketch, seed 1, whose categorical
  group holds holes of two estimator kinds.

The count covers ``train`` alone, so its one-off set-up (building the
cells, their draw plan and kind plan) is included and weighs less the
more iterations run.  The sketch is compiled before profiling starts:
compiling hashes its frozen AST nodes, and how many equality calls their
hash collisions make depends on the string hash seed.  Unlike wall time,
the count then repeats exactly on a given Python and NumPy, so it compares
two trees on a noisy machine.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/count_calls.py [ITERATIONS [BATCH]]
    # defaults: 3000 main
"""

from __future__ import annotations

import cProfile
import pstats
import sys

import numpy as np

from disnes import harness
from disnes.optimizer import TrainConfig, train
from disnes.sketch import SketchProblem, eval_batch, parse

# batch name -> its sketch, specification and (arm, learning rate) cells
BATCHES = {
    "main": (harness.MAIN_SKETCH, harness.MAIN_SPEC,
             [(arm, TrainConfig.learning_rate) for arm in harness.MAIN_ARMS]),
    "ablation": (harness.ABLATION_SKETCH, harness.ABLATION_SPEC,
                 [(arm, lr) for arm in harness.ABLATION_ARMS
                  for lr in harness.ABLATION_LEARNING_RATES]),
    "mixed": (harness.MAIN_SKETCH, harness.MAIN_SPEC,
              [(arm, TrainConfig.learning_rate) for arm in ("sg", "vo")]),
}


def count_calls(iterations, batch="main"):
    """Total calls cProfile sees while ``train`` runs the batch ``batch``."""
    sketch, spec, cells = BATCHES[batch]
    problem = SketchProblem(parse(sketch), spec)
    # compile the sketch outside the profile (one member, all values 0)
    eval_batch(problem.program, np.zeros((len(problem.program.holes), 1)),
               spec.inputs)
    configs = [TrainConfig(iterations=iterations, seed=1, learning_rate=lr,
                           estimator_kind=harness.ARM_KINDS[arm])
               for arm, lr in cells]
    profile = cProfile.Profile()
    profile.runcall(train, problem, configs)
    return pstats.Stats(profile).total_calls


def main(argv):
    iterations = int(argv[1]) if len(argv) > 1 else 3000
    batch = argv[2] if len(argv) > 2 else "main"
    if batch not in BATCHES:
        sys.exit(f"unknown batch {batch!r}; choose from {', '.join(BATCHES)}")
    total = count_calls(iterations, batch)
    print(f"iterations: {iterations}")
    print(f"total calls: {total}")
    print(f"calls per iteration: {total / iterations:.1f}")


if __name__ == "__main__":
    main(sys.argv)
