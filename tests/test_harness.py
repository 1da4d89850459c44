import inspect
import json
import os
import warnings

import numpy as np
import pytest

from disnes import checks, cli, harness
from disnes.distributions import (
    LOGITS, BernoulliParams, CategoricalParams, GaussianParams,
)
from disnes.optimizer import TrainConfig
from disnes.sketch import holes_to_distributions, parse, render


def _main_snapshot(hole, params):
    """A params snapshot of the main sketch's holes with ``params`` in place
    of the fitting distribution of hole number ``hole``."""
    program = parse(harness.MAIN_SKETCH)
    params_set = holes_to_distributions(program)
    params_set[hole] = params
    return harness.params_to_json(params_set, program.hole_ids())


def _edited_snapshot(hole, **fields):
    """A params snapshot of the main sketch with ``fields`` of hole number
    ``hole`` set as given, which the constructor may reject."""
    program = parse(harness.MAIN_SKETCH)
    data = json.loads(harness.params_to_json(
        holes_to_distributions(program), program.hole_ids()))
    data["holes"][hole].update(fields)
    return json.dumps(data)


def _sketch(expression):
    return f"fn f(x: f32) -> f32 {{ return {expression}; }}"


def quick_config(**kwargs):
    base = dict(iterations=60, population=24, log_every=20, seed=1)
    base.update(kwargs)
    return TrainConfig(**base)


class TestParamsJson:
    def test_round_trip(self):
        params = [
            BernoulliParams(0.3),
            CategoricalParams(np.log([0.2, 0.8]), mode=LOGITS),
            GaussianParams(1.5, -0.5),
        ]
        text = harness.params_to_json(params, ["a", "b", "c"])
        hole_ids, back = harness.params_from_json(text)
        assert hole_ids == ["a", "b", "c"]
        assert back[0].theta == params[0].theta
        assert np.array_equal(back[1].values, params[1].values)
        assert back[1].mode == LOGITS
        assert (back[2].mu, back[2].log_sigma) == (1.5, -0.5)

    def test_is_valid_json(self):
        text = harness.params_to_json([BernoulliParams(0.5)], ["h0"])
        data = json.loads(text)
        assert data["holes"][0]["family"] == "bernoulli"

    def test_unknown_family_rejected(self):
        bad = json.dumps({"holes": [{"id": "x", "family": "poisson"}]})
        with pytest.raises(ValueError):
            harness.params_from_json(bad)


class TestRunMain:
    def test_artifacts_on_disk(self, tmp_path):
        out = str(tmp_path / "main")
        results = harness.run_main(1, out, config=quick_config())
        assert [r.arm for r in results] == list(harness.MAIN_ARMS)
        for r in results:
            stem = f"{r.arm}_lr0.1_seed1"
            assert os.path.exists(os.path.join(out, stem + ".csv"))
            assert os.path.exists(os.path.join(out, stem + "_program.txt"))
            assert os.path.exists(os.path.join(out, stem + "_params.json"))
            assert r.program_text.startswith("fn prog_sketch")
            assert "[" not in r.program_text  # fully decoded
            assert np.isfinite(r.final_loss)

    def test_config_echo(self, tmp_path):
        out = str(tmp_path / "main")
        harness.run_main(7, out, config=quick_config(seed=7), arms=("nes",))
        text = (tmp_path / "main" / "config.txt").read_text()
        entries = dict(line.split("=", 1) for line in text.strip().split("\n"))
        assert entries["experiment"] == "main"
        assert entries["arms"] == "nes"
        assert entries["seed"] == "7"
        assert entries["lambda"] == "24"
        assert entries["iters"] == "60"

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        harness.run_main(1, out_a, config=quick_config(), arms=("nes",))
        harness.run_main(1, out_b, config=quick_config(), arms=("nes",))
        for name in ("nes_lr0.1_seed1.csv", "nes_lr0.1_seed1_program.txt",
                     "nes_lr0.1_seed1_params.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_arms_differ(self, tmp_path):
        out = str(tmp_path / "main")
        harness.run_main(1, out, config=quick_config())
        nes = (tmp_path / "main" / "nes_lr0.1_seed1_params.json").read_text()
        vo = (tmp_path / "main" / "vo_lr0.1_seed1_params.json").read_text()
        assert nes != vo

    def test_csv_header(self, tmp_path):
        out = str(tmp_path / "main")
        harness.run_main(1, out, config=quick_config(), arms=("nes",))
        header = (tmp_path / "main" / "nes_lr0.1_seed1.csv").read_text(
        ).split("\n")[0]
        cols = header.split(",")
        assert cols[:2] == ["iter", "loss"]
        assert cols[-1] == "decode_loss"
        assert cols[2:-1] == ["entropy_cond0", "entropy_op3", "entropy_op4"]


class TestRunAblation:
    def test_sweep_layout(self, tmp_path):
        out = str(tmp_path / "abl")
        results = harness.run_ablation(
            (1, 2), out, config=quick_config(),
            learning_rates=(0.1, 0.01))
        assert len(results) == 2 * 2 * 2  # arms x lrs x seeds
        for r in results:
            assert r.experiment == "ablation"
            assert os.path.exists(r.csv_path)
        names = sorted(os.listdir(out))
        assert "sg_lr0.01_seed2.csv" in names
        assert "nes_lr0.1_seed1_program.txt" in names

    @pytest.mark.parametrize("run", [
        lambda out: harness.run_ablation(
            (1,), out, learning_rates=(0.1, 0.1000001), arms=("nes",)),
        lambda out: harness.run_ablation((1,), out, arms=("nes", "nes")),
        lambda out: harness.run_ablation((1, 1), out),
        lambda out: harness.run_main(1, out, arms=("nes", "nes")),
    ], ids=["lr", "ablation-arm", "seed", "main-arm"])
    def test_cells_sharing_file_names_are_rejected(self, tmp_path, run):
        """Learning rates equal to 6 significant digits, or a repeated arm
        or seed, would give two cells one file name: the run raises,
        naming it, before it writes anything."""
        out = tmp_path / "abl"
        with pytest.raises(ValueError, match=r"files nes_lr0\.1_seed1\.\*"):
            run(str(out))
        assert not out.exists()

    @pytest.mark.parametrize("run", [
        lambda out: harness.run_main(1, out, arms=()),
        lambda out: harness.run_ablation((), out),
        lambda out: harness.run_ablation((1,), out, learning_rates=()),
    ], ids=["main-arms", "ablation-seeds", "ablation-lrs"])
    def test_empty_batch_writes_nothing(self, tmp_path, run):
        out = tmp_path / "empty"
        with pytest.raises(ValueError, match="experiment has no cells to run"):
            run(str(out))
        assert not out.exists()

    @pytest.mark.parametrize("run", [
        lambda out: harness.run_main(1, out, TrainConfig(iterations=2),
                                     arms=("nes", "bogus")),
        lambda out: harness.run_ablation((1,), out, arms=("bogus",)),
    ], ids=["main", "ablation"])
    def test_unknown_arm_writes_nothing(self, tmp_path, run):
        out = tmp_path / "bogus"
        with pytest.raises(ValueError, match="^unknown arm 'bogus'; the arms "
                                             "are nes, sg, vo$"):
            run(str(out))
        assert not out.exists()

    def test_config_echo_lists(self, tmp_path):
        out = str(tmp_path / "abl")
        harness.run_ablation((1, 3), out, config=quick_config(),
                             learning_rates=(0.05,), arms=("sg",))
        text = (tmp_path / "abl" / "config.txt").read_text()
        entries = dict(line.split("=", 1) for line in text.strip().split("\n"))
        assert entries["experiment"] == "ablation"
        assert entries["seeds"] == "1,3"
        assert entries["lrs"] == "0.05"


class TestSummary:
    def test_rows_sorted_and_parse(self, tmp_path):
        out = str(tmp_path / "abl")
        results = harness.run_ablation(
            (2, 1), out, config=quick_config(),
            learning_rates=(0.1, 0.01))
        path = harness.emit_summary(results, str(tmp_path / "summary.csv"))
        lines = open(path).read().strip().split("\n")
        header = lines[0].split(",")
        assert header[:5] == ["experiment", "arm", "lr", "seed", "final_loss"]
        assert header[5:] == ["output_0", "output_1", "output_2", "output_3",
                              "program_path"]
        keys = []
        for line in lines[1:]:
            cells = line.split(",")
            keys.append((cells[1], float(cells[2]), int(cells[3])))
            float(cells[4])  # loss parses
            assert cells[-1].endswith("_program.txt")
        assert keys == sorted(keys)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            harness.emit_summary([], str(tmp_path / "s.csv"))


class TestVerify:
    def test_all_checks_pass(self):
        results = checks.verify(samples=30_000, cases=200,
                                oracle_estimates=60, seed=0)
        failed = [c.name for c in results if not c.passed]
        assert failed == []
        assert len(results) == 13
        assert len({c.name for c in results}) == 13

    def test_report_format(self):
        results = [checks.Check("a", True, ""), checks.Check("b", False, "bad")]
        report = checks.format_report(results)
        assert "[PASS] a" in report
        assert "[FAIL] b  (bad)" in report
        assert report.endswith("1/2 checks passed")


class TestCli:
    def test_run_main_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        code = cli.main(["run-main", "--seed", "1", "--iters", "60",
                         "--lambda", "24", "--log-every", "20",
                         "--estimator", "nes", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "summary.csv"))
        stdout = capsys.readouterr().out
        assert "nes: final greedy MSE" in stdout

    def test_run_ablation_subcommand(self, tmp_path):
        out = str(tmp_path / "a")
        code = cli.main(["run-ablation", "--seed", "1,2", "--iters", "40",
                         "--lambda", "16", "--estimator", "sg", "--out", out])
        assert code == 0
        names = os.listdir(out)
        assert any(n.startswith("sg_") for n in names)
        assert not any(n.startswith("nes_") for n in names)

    @pytest.mark.parametrize("command", ["run-main", "run-ablation"])
    def test_train_flags_default_to_train_config(self, command):
        args = cli.build_parser().parse_args([command])
        default = TrainConfig()
        assert (args.iters, args.population, args.log_every) == (
            default.iterations, default.population, default.log_every)
        if command == "run-main":
            assert args.lr == default.learning_rate

    def test_verify_flags_default_to_checks(self):
        args = cli.build_parser().parse_args(["verify"])
        defaults = (checks.SAMPLES, checks.CASES, checks.ESTIMATES,
                    checks.SEED)
        assert (args.samples, args.cases, args.estimates,
                args.seed) == defaults
        verify = inspect.signature(checks.verify).parameters.values()
        assert tuple(p.default for p in verify) == defaults

    def test_verify_subcommand(self, capsys):
        code = cli.main(["verify", "--samples", "20000", "--cases", "100",
                         "--estimates", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "13/13 checks passed" in out

    def test_decode_subcommand(self, tmp_path, capsys):
        sketch_path = tmp_path / "sketch.txt"
        sketch_path.write_text(harness.MAIN_SKETCH)
        program = parse(harness.MAIN_SKETCH)
        params = [
            CategoricalParams(np.log([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]),
                              mode=LOGITS),
            GaussianParams(-1.5, -2.0),
            GaussianParams(1.1, -2.0),
            CategoricalParams(np.log([0.05, 0.05, 0.85, 0.05]), mode=LOGITS),
            CategoricalParams(np.log([0.05, 0.05, 0.85, 0.05]), mode=LOGITS),
            GaussianParams(4.0, -2.0),
        ]
        params_path = tmp_path / "params.json"
        params_path.write_text(
            harness.params_to_json(params, program.hole_ids()))
        code = cli.main(["decode", "--params", str(params_path),
                         "--sketch", str(sketch_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "if x < -1.5" in out
        assert "[" not in out

    def test_decode_hole_mismatch_is_usage_error(self, tmp_path, capsys):
        sketch_path = tmp_path / "sketch.txt"
        sketch_path.write_text(harness.MAIN_SKETCH)
        params_path = tmp_path / "params.json"
        params_path.write_text(
            harness.params_to_json([BernoulliParams(0.5)], ["nope"]))
        code = cli.main(["decode", "--params", str(params_path),
                         "--sketch", str(sketch_path)])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("hole,params,needs", [
        (0, GaussianParams(0.0, 0.0),
         "'cond0' (COND) needs a 6-way categorical, got a gaussian"),
        (1, CategoricalParams(np.zeros(4), mode=LOGITS),
         "'real1' (REAL) needs a gaussian, got a 4-way categorical"),
        (0, CategoricalParams(np.zeros(4), mode=LOGITS),
         "'cond0' (COND) needs a 6-way categorical, got a 4-way categorical"),
        (3, BernoulliParams(0.5),
         "'op3' (OP) needs a 4-way categorical, got a bernoulli"),
    ], ids=["gaussian-on-cond", "categorical-on-real", "k4-on-cond",
            "bernoulli-on-op"])
    def test_decode_names_the_family_a_hole_needs(self, tmp_path, capsys,
                                                  hole, params, needs):
        sketch_path = tmp_path / "sketch.txt"
        sketch_path.write_text(harness.MAIN_SKETCH)
        params_path = tmp_path / "params.json"
        params_path.write_text(_main_snapshot(hole, params))
        code = cli.main(["decode", "--params", str(params_path),
                         "--sketch", str(sketch_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: hole {needs}\n"

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = cli.main(["decode", "--params", str(tmp_path / "no.json"),
                         "--sketch", str(tmp_path / "no.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run-main", "--iters", "0"],
        ["run-main", "--lambda", "0"],
        ["run-main", "--lr", "-1"],
        ["run-main", "--lr", "nan"],
        ["run-main", "--log-every", "x"],
        ["run-main", "--seed", "-1"],
        ["run-ablation", "--seed", "1,,2"],
        ["run-ablation", "--lr", "0.05"],
        ["verify", "--samples", "0"],
        ["verify", "--samples", "1"],
        ["verify", "--estimates", "1"],
        ["run-main", "--sketch", "{sketch}", "--out", "{out}"],
        ["run-ablation", "--sketch", "{sketch}", "--out", "{out}"],
        ["decode", "--params", "{bad_json}", "--sketch", "{main}"],
        ["decode", "--params", "{no_family}", "--sketch", "{main}"],
        ["decode", "--params", "{good}", "--sketch", "{sketch}"],
        ["decode", "--params", "{gaussian_on_cond}", "--sketch", "{main}"],
        ["decode", "--params", "{categorical_on_real}", "--sketch", "{main}"],
        ["decode", "--params", "{k4_on_cond}", "--sketch", "{main}"],
        ["decode", "--params", "{sigma_overflow}", "--sketch", "{main}"],
        ["decode", "--params", "{mu_beyond_f32}", "--sketch", "{main}"],
        ["decode", "--params", "{bool_gaussian}", "--sketch", "{main}"],
        ["decode", "--params", "{bool_values}", "--sketch", "{main}"],
        ["run-main", "--sketch", "{two_inputs}", "--out", "{out}"],
        ["run-ablation", "--sketch", "{main}", "--out", "{out}"],
        ["run-main", "--sketch", "{not_utf8}", "--out", "{out}"],
        ["run-ablation", "--sketch", "{not_utf8}", "--out", "{out}"],
        ["decode", "--params", "{good}", "--sketch", "{not_utf8}"],
        ["decode", "--params", "{not_utf8}", "--sketch", "{main}"],
        ["decode", "--params", "{nested_json}", "--sketch", "{main}"],
        ["run-main", "--sketch", "{deep_sketch}", "--out", "{out}"],
        ["run-main", "--sketch", "{long_chain}", "--out", "{out}"],
        ["run-main", "--sketch", "{big_literal}", "--out", "{out}"],
        ["run-main", "--sketch", "{unicode_digit}", "--out", "{out}"],
        ["run-main", "--sketch", "{duplicate_arg}", "--out", "{out}"],
        ["decode", "--params", "{huge_logits}", "--sketch", "{main}"],
        ["decode", "--params", "{huge_int}", "--sketch", "{main}"],
        ["run-ablation", "--seed", "1,1", "--iters", "3", "--out", "{out}"],
        ["run-main", "--estimator", "nes", "--estimator", "nes",
         "--out", "{out}"],
    ], ids=" ".join)
    def test_malformed_input_exits_2_with_one_line_error(
            self, tmp_path, capsys, argv):
        files = {
            "sketch": "fn f(x: f32) -> f32 { return x [OP] ; }",
            "main": harness.MAIN_SKETCH,
            "bad_json": '{"holes": [',
            "no_family": json.dumps({"holes": [{"id": "cond0"}]}),
            "good": harness.params_to_json([BernoulliParams(0.5)], ["h"]),
            "gaussian_on_cond": _main_snapshot(0, GaussianParams(0.0, 0.0)),
            "categorical_on_real": _main_snapshot(
                1, CategoricalParams(np.zeros(4), mode=LOGITS)),
            "k4_on_cond": _main_snapshot(
                0, CategoricalParams(np.zeros(4), mode=LOGITS)),
            "sigma_overflow": _edited_snapshot(1, mu=0.0, log_sigma=800.0),
            "mu_beyond_f32": _edited_snapshot(1, mu=1e39, log_sigma=0.0),
            "bool_gaussian": _edited_snapshot(1, mu=True, log_sigma=False),
            "bool_values": _edited_snapshot(
                0, values=[True, False, 0, 0, 0, 0]),
            "two_inputs": harness.ABLATION_SKETCH,
            "not_utf8": b"fn f(x: f32) -> f32 { return x; } // \xff",
            "nested_json": "[" * 100_000 + "]" * 100_000,
            "deep_sketch": _sketch("(" * 5000 + "x" + ")" * 5000),
            "long_chain": _sketch(" + ".join(["x"] * 3000)),
            "big_literal": _sketch("x * 1" + "0" * 40 + ".0"),
            "unicode_digit": _sketch("x * \u0663").encode("utf-8"),
            "duplicate_arg":
                "fn f(x: f32, x: f32) -> f32 { return x [OP] [REAL]; }",
            "huge_logits": _edited_snapshot(
                0, values=[1e308, -1e308, 0, 0, 0, 0]),
            "huge_int": _edited_snapshot(0, values=[10**400, 0, 0, 0, 0, 0]),
        }
        paths = {"out": tmp_path / "out"}
        for name, text in files.items():
            paths[name] = tmp_path / name
            if isinstance(text, bytes):
                paths[name].write_bytes(text)
            else:
                paths[name].write_text(text)
        try:
            code = cli.main([a.format(**paths) for a in argv])
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert [line for line in lines if "error: " in line] == lines[-1:]
        assert not any("Traceback" in line for line in lines)
        assert not paths["out"].exists()

    def test_diverging_run_exits_1_with_one_line_error(self, tmp_path,
                                                       capsys):
        code = cli.main(["run-main", "--lr", "1e30", "--iters", "5",
                         "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: out-of-range parameters for hole 'real")

    def test_run_beyond_memory_exits_1_with_one_line_error(
            self, tmp_path, capsys, monkeypatch):
        # what NumPy raises for the (12, 10**8) draws of --lambda 10**8,
        # raised by a stub so that no test allocates
        message = ("Unable to allocate 8.94 GiB for an array with shape "
                   "(12, 100000000) and data type float64")

        def train(problem, configs):
            raise MemoryError(message)
        monkeypatch.setattr(harness, "train", train)
        code = cli.main(["run-main", "--lambda", "100000000",
                         "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert lines == [f"error: {message}"]

    def test_real_mean_beyond_f32_is_a_divergence(self, tmp_path, capsys):
        # the mean of real5 leaves the f32 range while log sigma is still
        # in bounds; rendered, it would be an inf literal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run-main", "--lr", "1000", "--iters", "300",
                             "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: out-of-range parameters for hole 'real5'")

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run-main", "--estimator", "bogus"])
        assert exc.value.code == 2

    def test_sketch_without_holes_trains(self, tmp_path, capsys):
        sketch_path = tmp_path / "true.txt"
        sketch_path.write_text(harness.TRUE_PROGRAM)
        out = tmp_path / "m"
        code = cli.main(["run-main", "--iters", "30", "--sketch",
                         str(sketch_path), "--out", str(out)])
        assert code == 0
        for arm in harness.MAIN_ARMS:
            stem = out / f"{arm}_lr0.1_seed1"
            csv = stem.with_name(stem.name + ".csv").read_text()
            assert csv.splitlines()[0] == "iter,loss,decode_loss"
            params_path = stem.with_name(stem.name + "_params.json")
            assert json.loads(params_path.read_text()) == {"holes": []}
            program = stem.with_name(stem.name + "_program.txt").read_text()
            assert program == render(parse(harness.TRUE_PROGRAM))
            capsys.readouterr()
            assert cli.main(["decode", "--params", str(params_path),
                             "--sketch", str(sketch_path)]) == 0
            assert capsys.readouterr().out == program

    def test_custom_sketch_flag(self, tmp_path):
        sketch_path = tmp_path / "s.txt"
        sketch_path.write_text(
            "fn f(x: f32) -> f32 { return x [OP] [REAL]; }")
        out = str(tmp_path / "m")
        code = cli.main(["run-main", "--seed", "1", "--iters", "40",
                         "--lambda", "16", "--sketch", str(sketch_path),
                         "--estimator", "nes", "--out", out])
        assert code == 0
        text = (tmp_path / "m" / "nes_lr0.1_seed1_program.txt").read_text()
        assert text.startswith("fn f(")
