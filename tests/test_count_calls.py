"""``tools/count_calls.py`` runs, and the training loop makes no more Python
calls per iteration, on the run-main, the run-ablation and the mixed-kind
batch, than it did when every fitness came to be scored through its
``population``."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# calls per iteration of the 300-iteration run-main batch, measured with
# Python 3.11.7 and NumPy 2.4.6 (296.9 while every loop function still
# told its arguments' forms apart on every iteration, 271.0 while the
# categorical block gathered through np.take_along_axis, 244.0 while each
# categorical group drew on its own and its weights were built from
# one-hot samples, 188.3 while every group was projected, the LOGITS and
# Gaussian ones by a no-op, and the entropy entered np.errstate, 180.3
# before the cells of one seed shared its draws, 177.3 while holes
# were grouped by block type and width, five groups in place of three,
# 144.0 while blocks computed p and sigma on first read, through a
# descriptor, 137.1 while each logged decode called the fitness once
# per cell and each record copied its cell's parameters, 137.0 while
# a batch built one state per cell and joined them, and 135.8 while the
# fitness call asked whether the fitness had a ``population``)
MAX_CALLS_PER_ITERATION = 135.0
# the same for the 10-cell run-ablation batch (185.2 while blocks computed
# p and sigma on first read, 178.7 while each logged decode called the
# fitness once per cell and each record copied its cell's parameters,
# 172.2 while a joined state kept a position array per cell, 172.1 while
# a batch built one state per cell and joined them, 170.6 while the
# fitness call asked whether the fitness had a ``population``)
MAX_ABLATION_CALLS_PER_ITERATION = 170.3
# the same for the mixed batch, arms sg and vo, whose categorical group
# mixes two estimator kinds (130.1 while a batch built one state per cell
# and joined them, 129.0 while the fitness call asked whether the fitness
# had a ``population``)
MAX_MIXED_CALLS_PER_ITERATION = 128.0


def calls_per_iteration(batch):
    """``tools/count_calls.py 300 BATCH``'s calls per iteration."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "count_calls.py"), "300",
         batch],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    report = dict(line.split(": ") for line in out.splitlines())
    assert report["iterations"] == "300"
    return float(report["calls per iteration"])


def test_calls_per_iteration_within_the_measured_count():
    assert calls_per_iteration("main") <= MAX_CALLS_PER_ITERATION


def test_ablation_calls_per_iteration_within_the_measured_count():
    assert (calls_per_iteration("ablation")
            <= MAX_ABLATION_CALLS_PER_ITERATION)


def test_mixed_calls_per_iteration_within_the_measured_count():
    assert calls_per_iteration("mixed") <= MAX_MIXED_CALLS_PER_ITERATION
