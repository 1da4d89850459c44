"""Tests of the benchmark itself: the gate trips, the trace adds up and the
``wide`` generator is deterministic.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import gate
import run
import tracer
import widegen
from disnes import harness, optimizer, parse
from disnes.optimizer import TrainConfig

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)


def _write_unit(out, cells=("nes_lr0.1_seed1", "vo_lr0.1_seed1")):
    rows = ["experiment,arm,lr,seed,final_loss,output_0,program_path"]
    for stem in cells:
        for suffix in gate.CELL_SUFFIXES:
            (out / (stem + suffix)).write_text(f"{stem}{suffix}\n")
        rows.append(f"main,{stem[:2]},0.1,1,1.5,2.0,{stem}_program.txt")
    (out / gate.SUMMARY).write_text("\n".join(rows) + "\n")


def test_gate_trips_on_corrupted_artifact(tmp_path):
    _write_unit(tmp_path)
    expected, losses = gate.read_unit(tmp_path)
    assert gate.failed_cells(expected, losses, expected) == set()

    with open(tmp_path / "vo_lr0.1_seed1_params.json", "a") as fh:
        fh.write(" ")
    digests, losses = gate.read_unit(tmp_path)
    assert gate.failed_cells(digests, losses, expected) == {"vo_lr0.1_seed1"}

    corrupt = dict(expected, **{gate.SUMMARY: "0" * 64})
    assert gate.failed_cells(expected, losses, corrupt) == set(losses)


def test_gate_trips_on_nonfinite_loss(tmp_path):
    _write_unit(tmp_path)
    summary = tmp_path / gate.SUMMARY
    summary.write_text(summary.read_text().replace("main,vo,0.1,1,1.5",
                                                   "main,vo,0.1,1,nan"))
    digests, losses = gate.read_unit(tmp_path)
    assert gate.failed_cells(digests, losses, None) == {"vo_lr0.1_seed1"}


def test_corrupted_pin_fails_the_run(tmp_path):
    """End to end: a wrong pinned digest makes the benchmark exit 1."""
    os.symlink(os.path.join(REPO, "src"), tmp_path / "src")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "bench" / "baseline.json"
    data = json.loads(path.read_text())
    data["pinned"]["wide"][gate.SUMMARY] = "0" * 64
    path.write_text(json.dumps(data))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # seed 1 is the pinned seed, so the reference unit and every timed
    # unit fail
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1 + run.MIN_UNITS
    # failed units give no timings
    assert result["metrics"]["wall_s"]["value"] is None
    assert result["metrics"]["iters_per_s"]["value"] is None


def _busy(seconds):
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        n += 1
    return n


def test_sampler_leaves_the_unit_alone():
    sampler = run.Sampler()
    assert sampler.run_unit(lambda: _busy(0.5)) > 0
    assert sampler.slices and 0 < sampler.spent
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_outside_checkout_exits_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "main", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def _small_unit(out_dir):
    sketch, inputs, outputs = widegen.generate(3)
    from disnes.sketch import Specification

    results = harness.run_main(3, str(out_dir), TrainConfig(iterations=40),
                               sketch, Specification(inputs, outputs),
                               arms=("nes",))
    harness.emit_summary(results, str(out_dir / gate.SUMMARY))


def test_self_times_add_up_and_results_unchanged(tmp_path):
    _small_unit(tmp_path / "plain")
    plain, _ = gate.read_unit(tmp_path / "plain")

    t = tracer.Tracer().install()
    try:
        t.run_unit(lambda: _small_unit(tmp_path / "traced"))
    finally:
        t.uninstall()
    traced, _ = gate.read_unit(tmp_path / "traced")
    assert traced == plain
    assert optimizer.train.__name__ == "train"
    assert harness.train is optimizer.train

    report = t.report(untraced_wall_s=0.0)
    assert not any(absent for _, _, absent in report.values())
    self_total = sum(value for name, (value, unit, _) in report.items()
                     if unit == "s" and not name.startswith("trace."))
    wall = report["trace.wall_s"][0]
    assert self_total + report["trace.uncovered_s"][0] == pytest.approx(
        wall, rel=1e-9, abs=1e-9)
    assert report["optimizer.sgd_step_calls"][0] == 40
    assert report["sketch.evals"][0] >= 40 * 50 * 64
    assert report["estimator.members"][0] == 40 * 50


def test_missing_hook_is_absent(monkeypatch):
    from disnes import estimator

    monkeypatch.delattr(estimator, "_weights")
    monkeypatch.delattr(optimizer, "_check_finite")
    t = tracer.Tracer().install()
    t.uninstall()
    report = t.report(untraced_wall_s=0.0)
    for name in ("estimator.weights_natural_s", "estimator.weights_vo_calls",
                 "optimizer.check_finite_s", "optimizer.check_finite_calls"):
        assert report[name] == (0.0, report[name][1], True)
    assert report["sketch.eval_batch_s"][2] is False


def test_wide_generator_is_deterministic():
    first = widegen.generate(7)
    again = widegen.generate(7)
    assert first[0] == again[0]
    np.testing.assert_array_equal(first[1], again[1])
    np.testing.assert_array_equal(first[2], again[2])
    assert widegen.digest(7) != widegen.digest(8)

    sketch, inputs, outputs = first
    assert len(parse(sketch).holes) == 27
    assert inputs.shape == (64, 3) and outputs.shape == (64,)
    assert outputs.dtype == inputs.dtype == np.float32

    with open(os.path.join(BENCH_DIR, "baseline.json")) as fh:
        pinned = json.load(fh)["wide_generator"]
    assert pinned["params"] == widegen.PARAMS
    assert widegen.digest(pinned["ref_seed"]) == \
        pinned["sketch_and_spec_sha256"]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, unit) for name, unit, _ in tracer.LAYER_METRICS]
