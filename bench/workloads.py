"""The benchmark's workloads: one unit of work each, run in a closed loop.

A unit is one call into the program with inputs made from the workload
seed; it writes its artifacts (per-cell CSV, program, params JSON and
``summary.csv``) into ``out_dir``.  A cell is one (arm, lr, seed) training
run inside a unit and is the benchmark's operation: it is what the
correctness gate passes or fails.

Iteration counts are smaller than the CLI defaults so a unit takes about
two seconds on a 2-core box and a run holds several units to take a
median over.

* ``main`` -- ``disnes run-main``: the nes and vo arms on ``MAIN_SKETCH``
  (6 holes, 4 spec rows).  The paper's headline experiment; arrays are
  tiny, so Python dispatch dominates.
* ``ablation`` -- ``disnes run-ablation``: nes and sg arms times five
  learning rates on the two-input sketch.  Many short cells, each parsing
  the sketch again and writing three artifacts, so per-cell set-up and
  artifact writing show; batching across cells would act here.
* ``wide`` -- one nes cell on a 27-hole, 64-row sketch from ``widegen``,
  called through ``harness.run_main``.  Per-hole loops run about 4.5x more
  often and arrays are (lambda, 64); a single cell gets nothing from
  batching across cells.

The tier-1 test suite's wall time is not a workload: at about four minutes
it is too long to repeat for every comparison of two commits.  Its time
goes mostly to the run-main and ablation fixtures, which ``main`` and
``ablation`` cover.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

# NumPy and disnes are imported inside the methods: the benchmark pins the
# BLAS thread count before NumPy is first imported.

REF_SEED = 1  # the seed whose artifact digests are pinned


class Cli:
    """A unit that is one ``disnes <command>`` call through ``cli.main``."""

    def __init__(self, name, command, iters, cells):
        self.name, self.command = name, command
        self.iters, self.cells = iters, cells

    def prepare(self, seed):
        return None

    def run(self, seed, out_dir, prepared):
        from disnes import cli

        argv = [self.command, "--seed", str(seed), "--iters", str(self.iters),
                "--out", out_dir]
        # the CLI prints a line per cell; keep it off the benchmark's stdout
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"disnes {' '.join(argv)} exited with {code}")


class Wide:
    """One nes cell on the seed's generated sketch, via ``harness.run_main``."""

    name = "wide"
    iters = 600
    cells = 1

    def prepare(self, seed):
        import widegen
        from disnes.sketch import Specification

        sketch, inputs, outputs = widegen.generate(seed)
        return sketch, Specification(inputs, outputs)

    def run(self, seed, out_dir, prepared):
        from disnes import harness
        from disnes.optimizer import TrainConfig

        sketch, spec = prepared
        config = TrainConfig(iterations=self.iters, seed=seed)
        results = harness.run_main(seed, out_dir, config=config,
                                   sketch_text=sketch, spec=spec,
                                   arms=("nes",))
        harness.emit_summary(results, os.path.join(out_dir, "summary.csv"))


WORKLOADS = {w.name: w for w in (Cli("main", "run-main", 1500, 2),
                                  Cli("ablation", "run-ablation", 300, 10),
                                  Wide())}


def fresh_dir(path):
    """Empty ``path`` so a unit's artifacts are all its own."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
