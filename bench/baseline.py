"""Maintains ``bench/baseline.json``: pinned digests and the noise band.

Run from the repository root::

    python3 bench/baseline.py pin
    python3 bench/baseline.py measure --runs 10 --first-seed 1

``pin`` runs each workload's unit once at the reference seed and records
the SHA-256 of its artifacts, which every benchmark run then checks; it
also records the ``wide`` generator's parameters and the digest of its
reference-seed sketch and spec.  Re-pinning is for a change that must
alter numerics, and says so in CHANGES.md.

``measure`` runs ``run.py`` ``--runs`` times per workload, each with
another seed, and records for every end-to-end metric the median, the
quartiles and the spread (interquartile range over median), together
with the provenance of the first run.  ``--write`` stores the result as
the baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(BENCH_DIR, "baseline.json")


def load():
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh)


def save(data):
    with open(BASELINE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def pin(data):
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), BENCH_DIR]
    import run
    run.pin_threads()  # as in every benchmark run, before NumPy loads
    import gate
    import widegen
    from workloads import REF_SEED, WORKLOADS, fresh_dir

    pinned = {}
    for name, workload in WORKLOADS.items():
        out = fresh_dir(os.path.join(os.getcwd(), ".bench_out", "pin-" + name))
        workload.run(REF_SEED, out, workload.prepare(REF_SEED))
        pinned[name], _ = gate.read_unit(out)
    data["pinned"] = pinned
    sketch, _, _ = widegen.generate(REF_SEED)
    data["wide_generator"] = {
        "params": widegen.PARAMS,
        "ref_seed": REF_SEED,
        "sketch_sha256": hashlib.sha256(sketch.encode()).hexdigest(),
        "sketch_and_spec_sha256": widegen.digest(REF_SEED),
    }


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def measure(args):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    result = {"runs": args.runs, "seconds": bench["run_seconds"],
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    for name in names:
        values = {}
        for seed in result["seeds"]:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=300)
            lines = done.stdout.strip().splitlines()
            out = json.loads(lines[-1])
            if done.returncode != 0 or not out["correct"]:
                sys.exit(f"{name} seed {seed} failed:\n{done.stdout}"
                         f"{done.stderr}")
            result.setdefault("provenance", json.loads(
                lines[0][len("provenance "):]))
            for metric, m in out["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        stats = {metric: quartiles(v) for metric, v in values.items()}
        result["workloads"][name] = stats
        for metric, s in stats.items():
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  WIDE"
            print(f"{name:9s} {metric:14s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {bounds[metric]}{flag}",
                  flush=True)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("pin")
    m = sub.add_parser("measure")
    m.add_argument("--runs", type=int, default=10)
    m.add_argument("--first-seed", type=int, default=1)
    m.add_argument("--workloads", nargs="*")
    m.add_argument("--write", action="store_true",
                   help="store the result as the baseline")
    args = p.parse_args(argv)
    data = load() if os.path.exists(BASELINE) else {}
    if args.command == "pin":
        pin(data)
        save(data)
        return 0
    result = measure(args)
    if args.write:
        data["baseline"] = result
        save(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
