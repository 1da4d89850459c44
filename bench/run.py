"""The disnes benchmark: one workload, one seed, one measured run.

Run from the repository root::

    python3 bench/run.py --workload main --seed 1 --seconds 30 --trace 0

Workloads are ``main``, ``ablation`` and ``wide`` (see ``workloads.py``).
The run first times ``SETUP_PROBES`` fresh interpreters from start to the
first training call (``setup_s``).  In this process it then runs one unit
at the reference seed, whose artifacts must match the digests pinned in
``bench/baseline.json``, and after that runs units at ``--seed`` in a
closed loop for ``--seconds`` seconds.  Every repeat of the seed must
write the same bytes as its first unit.

The shared machines this runs on change speed by tens of percent within
seconds, which swamps a wall-clock comparison of two commits.  So the
timing metrics are in reference seconds: wall seconds scaled by how fast
``calibrate``, a fixed loop of small NumPy and Python operations that does
not touch ``disnes``, ran at the same time, to what it takes on the
reference machine (``REF_ROUND_S`` per round).  While a unit runs, a timer
signal in this thread runs a short slice of the loop every
``SLICE_EVERY_S``; the slices' time is taken out of the unit's wall time.
A set-up probe is short, so it is bracketed by a calibration before and
after instead.  The raw walls are printed too.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median
probe; ``wall_s`` is the mean unit wall over the run, scaled by the mean
slice over the run; ``final_mse`` is the median over the seed's cells.
``--trace 1`` alternates plain and traced units (only plain ones are
sampled) and reports per-layer metrics per unit (see ``tracer.py``).
The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (cells), ``metrics``.
The exit code is 1 when a cell failed and 2 on a usage error, such as a
directory without the ``src/disnes`` sources.

BLAS and OpenMP pools are pinned to one thread for this process and its
children.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from gate import bytes_written, failed_cells, read_unit
from workloads import REF_SEED, WORKLOADS, fresh_dir

# tracer imports NumPy, so it is imported only after the thread pins are set

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9   # timed fresh interpreters per run, after one warm-up
CAL_ROUNDS = 6000   # calibration rounds before and after each set-up probe
SLICE_ROUNDS = 600  # calibration rounds per slice while a unit runs
SLICE_EVERY_S = 0.2  # wall seconds between slices
# seconds per calibration round on the reference machine: a 2-core box on
# which reference seconds read close to wall seconds
REF_ROUND_S = 0.1 / 6000
MIN_UNITS = 3      # timed units per run, even past --seconds
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("iters_per_s", "1/s"),
              ("peak_rss_mib", "MiB"), ("final_mse", "mse"))


class FirstTrain(BaseException):
    """Stops a set-up probe at the first training call."""


def pin_threads():
    """One BLAS/OpenMP thread, for this process and its children.  Takes
    effect only if called before NumPy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def calibrate(rounds):
    """Wall seconds of ``rounds`` rounds of a fixed loop with the program's
    cost profile: NumPy calls on tiny float32 arrays and Python-level work
    between them."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 300, dtype=np.float32).reshape(50, 6)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(rounds):
        b = a * np.float32(1.5) + np.float32(0.1)
        acc += float(np.exp(-np.abs(b.sum(axis=0))).max())
        acc += sum([x * 0.5 for x in range(20)])
    return time.perf_counter() - start


def to_ref(wall, cal_s, rounds):
    """``wall`` seconds in reference seconds, given that ``rounds``
    calibration rounds took ``cal_s`` seconds at the same time."""
    return wall * rounds * REF_ROUND_S / cal_s


class Sampler:
    """Samples the machine's speed while a unit runs.

    A SIGALRM timer runs ``calibrate(SLICE_ROUNDS)`` every
    ``SLICE_EVERY_S``.  The handler runs in this thread between bytecodes
    and touches no program state, so the unit's results are unchanged.
    """

    def __init__(self):
        self.slices = []  # seconds per slice, over the whole run
        self.spent = 0.0  # seconds in the handler during the last unit

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.slices.append(calibrate(SLICE_ROUNDS))
        self.spent += time.perf_counter() - start

    def run_unit(self, fn):
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S / 2, SLICE_EVERY_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def monotonic():
    # CLOCK_MONOTONIC is shared by all processes, so a child's stamp can be
    # compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def probe_setup(workload, seed, out_dir):
    """Child side of ``setup_s``: run a unit up to its first training call
    and print the monotonic clock at that moment."""
    from tracer import rebind
    from disnes import optimizer

    def first_train(*args, **kwargs):
        raise FirstTrain(monotonic())

    rebind(optimizer, optimizer.train, first_train)
    try:
        workload.run(seed, out_dir, workload.prepare(seed))
    except FirstTrain as stop:
        print(repr(stop.args[0]))
        return 0
    print("error: the unit finished without calling train", file=sys.stderr)
    return 1


def measure_setup(args, root):
    """Median reference seconds from a fresh interpreter to the first
    training call."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for i in range(SETUP_PROBES + 1):
        before = calibrate(CAL_ROUNDS)
        start = monotonic()
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        wall = float(done.stdout.strip().splitlines()[-1]) - start
        if i:  # the first probe fills bytecode and file caches
            cal_s = (before + calibrate(CAL_ROUNDS)) / 2
            times.append(to_ref(wall, cal_s, CAL_ROUNDS))
    return statistics.median(times)


def provenance(root):
    import numpy as np

    def git_sha():
        head = os.path.join(root, ".git", "HEAD")
        try:
            with open(head, encoding="utf-8") as fh:
                ref = fh.read().strip()
            if not ref.startswith("ref: "):
                return ref
            with open(os.path.join(root, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


class Runner:
    """Runs units of one workload and keeps the gate's tally."""

    def __init__(self, workload, out_dir, pinned_seed, pinned):
        self.workload = workload
        self.out_dir = out_dir
        # the pinned seed's expected digests; other seeds expect their
        # first unit's
        self.expected = {pinned_seed: pinned}
        self.attempted = 0
        self.failed = 0
        self.losses = {}      # seed -> final loss per cell
        self.bytes = 0        # artifact bytes of the last unit

    def unit(self, seed, prepared, call=None):
        """Run one unit and check it.  Returns its wall seconds if every
        cell passed the gate, else None.

        ``call`` wraps the unit (the sampler, or the tracer's root span).
        """
        def run():
            self.workload.run(seed, self.out_dir, prepared)

        fresh_dir(self.out_dir)
        cells = self.workload.cells
        self.attempted += cells
        start = time.perf_counter()
        try:
            call(run) if call else run()
        except Exception as exc:  # a failed unit fails its cells, not the run
            print(f"unit at seed {seed} raised {exc!r}", file=sys.stderr)
            self.failed += cells
            return None
        wall = time.perf_counter() - start
        try:
            digests, losses = read_unit(self.out_dir)
        except (OSError, KeyError, ValueError) as exc:
            print(f"unit at seed {seed} left unreadable artifacts: {exc!r}",
                  file=sys.stderr)
            self.failed += cells
            return None
        bad = failed_cells(digests, losses,
                           self.expected.setdefault(seed, digests))
        if bad:
            print(f"unit at seed {seed}: cells failed the gate: "
                  f"{sorted(bad)}", file=sys.stderr)
        self.failed += min(cells, len(bad))
        self.losses.setdefault(seed, losses)
        self.bytes = bytes_written(self.out_dir)
        return None if bad else wall


def main(argv=None):
    pin_threads()
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "disnes", "__init__.py")):
        print("error: src/disnes not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    workload = WORKLOADS[args.workload]
    out_base = os.path.join(root, ".bench_out", workload.name)
    if args.probe_setup:
        return probe_setup(workload, args.seed, out_base + "-probe")

    prov = provenance(root)
    with open(os.path.join(BENCH_DIR, "baseline.json"), encoding="utf-8") as fh:
        pins = json.load(fh)["pinned"]
    setup_s = None if args.trace else measure_setup(args, root)

    runner = Runner(workload, out_base, REF_SEED, pins[workload.name])
    runner.unit(REF_SEED, workload.prepare(REF_SEED))
    prepared = workload.prepare(args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    sampler = Sampler()
    walls = []  # wall seconds of the plain units that passed the gate
    units = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or units < MIN_UNITS:
        units += 1
        wall = runner.unit(args.seed, prepared, call=sampler.run_unit)
        if wall is not None:
            walls.append(wall - sampler.spent)
        if tracer is not None:
            tracer.install()
            try:
                runner.unit(args.seed, prepared, call=tracer.run_unit)
            finally:
                tracer.uninstall()
            tracer.count("harness.artifact_bytes", runner.bytes)

    # timings come from passing units only: None when none passed
    if tracer is None:
        import resource

        cells = runner.losses.get(args.seed, {})
        wall_s = to_ref(statistics.fmean(walls),
                        statistics.fmean(sampler.slices),
                        SLICE_ROUNDS) if walls else None
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "iters_per_s":
                workload.cells * workload.iters / wall_s if walls else None,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_mse": statistics.median(cells.values()) if cells else None,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        metrics = {}
        for name, (value, unit, absent) in tracer.report(
                statistics.fmean(walls) if walls else None).items():
            metrics[name] = {"value": value, "unit": unit}
            if absent:
                metrics[name]["absent"] = True

    correct = runner.failed == 0
    print("provenance " + json.dumps(prov))
    print(f"workload {workload.name} seed {args.seed}: {units} units"
          + (f" + {units} traced" if tracer else "")
          + f", cells attempted {runner.attempted} failed {runner.failed}"
          + f" (pinned digests of seed {REF_SEED} checked)")
    print("passing unit walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    if sampler.slices:
        print(f"calibration: {len(sampler.slices)} slices, mean "
              f"{statistics.fmean(sampler.slices) * 1e3:.3f} ms, reference "
              f"{SLICE_ROUNDS * REF_ROUND_S * 1e3:.3f} ms")
    for name, m in metrics.items():
        value = "none" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:32s} {value} {m['unit']}"
              + ("  absent" if m.get("absent") else ""))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
