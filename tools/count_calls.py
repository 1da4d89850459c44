"""Count the Python calls that one training iteration makes.

Trains the default ``disnes run-main`` batch (arms nes and vo, seed 1) for
ITERATIONS iterations under cProfile, then prints the total call count and
the calls per iteration.  The count covers ``train`` alone, so its one-off
set-up (building the cells, their draw plan and kind plan) is included
and weighs less the more iterations run.  The sketch is compiled before
profiling starts: compiling hashes its frozen AST nodes, and how many
equality calls their hash collisions make depends on the string hash
seed.  Unlike wall time, the count then repeats exactly on a given Python
and NumPy, so it compares two trees on a noisy machine.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/count_calls.py [ITERATIONS]   # default 3000
"""

from __future__ import annotations

import cProfile
import pstats
import sys

import numpy as np

from disnes import harness
from disnes.optimizer import TrainConfig, train
from disnes.sketch import SketchProblem, eval_batch, parse


def count_calls(iterations):
    """Total calls cProfile sees while ``train`` runs the batch."""
    problem = SketchProblem(parse(harness.MAIN_SKETCH), harness.MAIN_SPEC)
    # compile the sketch outside the profile (one member, all values 0)
    eval_batch(problem.program, np.zeros((len(problem.program.holes), 1)),
               harness.MAIN_SPEC.inputs)
    configs = [TrainConfig(iterations=iterations, seed=1,
                           estimator_kind=harness.ARM_KINDS[arm])
               for arm in harness.MAIN_ARMS]
    profile = cProfile.Profile()
    profile.runcall(train, problem, configs)
    return pstats.Stats(profile).total_calls


def main(argv):
    iterations = int(argv[1]) if len(argv) > 1 else 3000
    total = count_calls(iterations)
    print(f"iterations: {iterations}")
    print(f"total calls: {total}")
    print(f"calls per iteration: {total / iterations:.1f}")


if __name__ == "__main__":
    main(sys.argv)
