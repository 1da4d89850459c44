"""Command-line entry point.

Subcommands: ``run-main``, ``run-ablation``, ``verify``, ``decode``.
Exit codes: 0 success, 1 check or runtime failure (a missing file, a
diverging run, or a run too large for memory), 2 usage error or
malformed input (a flag value, a sketch file or a params snapshot).
Every failure prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import checks, harness
from .optimizer import DivergenceError, TrainConfig, greedy_decode
from .sketch import SketchError, check_params_fit, parse, render


def _checked(cast, ok, requirement):
    """An argparse type: ``cast`` the text, then require ``ok(value)``."""
    def convert(text):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}")
        return value
    return convert


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
# a standard error needs two values
_sample_size = _checked(int, lambda v: v >= 2, "an integer >= 2")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_seed_list = _checked(lambda text: tuple(int(s) for s in text.split(",")),
                      lambda v: min(v) >= 0 and len(set(v)) == len(v),
                      "a comma-separated list of distinct integers >= 0")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0.0,
                           "a finite number > 0")


def _add_train_flags(sub, arms):
    """The flags of a training subcommand whose default arms are ``arms``."""
    sub.add_argument("--iters", type=_positive_int,
                     default=TrainConfig.iterations, help="iteration budget")
    sub.add_argument("--lambda", dest="population", type=_positive_int,
                     default=TrainConfig.population,
                     help="population size per gradient estimate")
    sub.add_argument("--log-every", type=_positive_int,
                     default=TrainConfig.log_every)
    sub.add_argument("--sketch", help="path to a sketch file overriding the default")
    sub.add_argument("--out", default="runs", help="output directory")
    sub.add_argument("--estimator", choices=sorted(harness.ARM_KINDS),
                     action="append", dest="arms",
                     help=f"arm to run (repeatable; default: "
                          f"{' and '.join(arms)})")


def _config(args, seed, **overrides):
    return TrainConfig(iterations=args.iters, population=args.population,
                       seed=seed, log_every=args.log_every, **overrides)


def _read_sketch(path):
    """The text of the sketch file ``path``; text that is not UTF-8 is a
    malformed sketch (:class:`SketchError`)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SketchError(f"{path}: {exc}") from exc


def _sketch_text(args):
    """The ``--sketch`` text; the harness parses it before writing anything,
    so a malformed file fails early."""
    return _read_sketch(args.sketch) if args.sketch else None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="disnes",
        description="Discrete evolution-strategy hole filling for program sketches.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("run-main", help="single-input induction experiment")
    _add_train_flags(p, harness.MAIN_ARMS)
    p.add_argument("--lr", type=_positive_float,
                   default=TrainConfig.learning_rate, help="learning rate")
    p.add_argument("--seed", type=_seed, default=1)

    p = subs.add_parser("run-ablation",
                        help="learning-rate sweep, nes vs sg arms (the "
                             "learning rates are fixed)")
    _add_train_flags(p, harness.ABLATION_ARMS)
    p.add_argument("--seed", type=_seed_list, default=(1,),
                   help="comma-separated seed list")

    p = subs.add_parser("verify", help="distribution and estimator checks")
    p.add_argument("--samples", type=_sample_size, default=checks.SAMPLES)
    p.add_argument("--cases", type=_positive_int, default=checks.CASES)
    p.add_argument("--estimates", type=_sample_size, default=checks.ESTIMATES)
    p.add_argument("--seed", type=_seed, default=checks.SEED)

    p = subs.add_parser("decode", help="render the greedy program from a snapshot")
    p.add_argument("--params", required=True, help="params snapshot JSON")
    p.add_argument("--sketch", required=True, help="sketch file the snapshot trains")

    return parser


def _parse_args(argv):
    """The parsed ``argv``; an ``--estimator`` arm given twice is a usage
    error, as a bad flag value is."""
    parser = build_parser()
    args = parser.parse_args(argv)
    arms = getattr(args, "arms", None) or ()
    if len(set(arms)) < len(arms):
        parser.error(f"argument --estimator: each arm may be given once, "
                     f"got {' '.join(arms)}")
    return args


def main(argv=None):
    args = _parse_args(argv)
    try:
        if args.command == "run-main":
            arms = tuple(args.arms) if args.arms else harness.MAIN_ARMS
            results = harness.run_main(
                args.seed, args.out,
                config=_config(args, args.seed, learning_rate=args.lr),
                sketch_text=_sketch_text(args), arms=arms)
            harness.emit_summary(results, f"{args.out}/summary.csv")
            for r in results:
                print(f"{r.arm}: final greedy MSE {r.final_loss:.6g} "
                      f"outputs {[float(v) for v in r.final_outputs]}")
            return 0

        if args.command == "run-ablation":
            arms = tuple(args.arms) if args.arms else harness.ABLATION_ARMS
            results = harness.run_ablation(
                args.seed, args.out, config=_config(args, args.seed[0]),
                sketch_text=_sketch_text(args), arms=arms)
            harness.emit_summary(results, f"{args.out}/summary.csv")
            for r in results:
                print(f"{r.arm} lr={r.learning_rate:g} seed={r.seed}: "
                      f"final greedy MSE {r.final_loss:.6g}")
            return 0

        if args.command == "verify":
            results = checks.verify(samples=args.samples, cases=args.cases,
                                    oracle_estimates=args.estimates,
                                    seed=args.seed)
            print(checks.format_report(results))
            return 0 if all(c.passed for c in results) else 1

        if args.command == "decode":
            program = parse(_read_sketch(args.sketch))
            try:
                with open(args.params, encoding="utf-8") as fh:
                    hole_ids, params = harness.params_from_json(fh.read())
            except ValueError as exc:  # UnicodeDecodeError included
                print(f"error: {args.params}: {exc}", file=sys.stderr)
                return 2
            check_params_fit(program, hole_ids, params)
            assignment = dict(zip(hole_ids, greedy_decode(params)))
            sys.stdout.write(render(program, assignment))
            return 0
    except (OSError, MemoryError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
