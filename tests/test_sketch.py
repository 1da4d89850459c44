import warnings

import numpy as np
import pytest

from disnes.distributions import CategoricalParams, GaussianParams, PROBS
from disnes.harness import ABLATION_SKETCH, MAIN_SKETCH, MAIN_SPEC, TRUE_PROGRAM
from disnes.sketch import (
    COND_OPS, OP_OPS,
    SketchError, SketchSyntaxError, Specification, SpecFitness,
    eval_program, format_f32, holes_to_distributions,
    parse, render,
)

# assignment reproducing the reference induced program: cond '<',
# constants -1.5677981 / 1.1321394 / 3.9859228, both operators '*'
LEARNED_ASSIGNMENT = {
    "cond0": COND_OPS.index("<"),
    "real1": -1.5677981,
    "real2": 1.1321394,
    "op3": OP_OPS.index("*"),
    "op4": OP_OPS.index("*"),
    "real5": 3.9859228,
}

LEARNED_LISTING = """\
fn prog_output(x: f32) -> f32
{
  if x < -1.5677981
  {
    return 1.1321394 * x;
  }

  return x * 3.9859228;
}
"""


def norm_tokens(text):
    return text.split()


class TestParse:
    def test_main_sketch_hole_inventory(self):
        ast = parse(MAIN_SKETCH)
        kinds = [h.kind for h in ast.holes]
        assert sorted(kinds) == sorted(["COND", "REAL", "REAL", "OP", "OP", "REAL"])
        assert ast.hole_ids() == ["cond0", "real1", "real2", "op3", "op4", "real5"]

    def test_true_program_has_no_holes(self):
        assert parse(TRUE_PROGRAM).holes == ()

    def test_identity_function(self):
        ast = parse("fn f(x: f32) -> f32 { return x; }")
        assert ast.branches == ()
        assert ast.holes == ()

    def test_named_holes(self):
        ast = parse("fn f(x: f32) -> f32 { return x [OP:op1] [REAL:c]; }")
        assert ast.hole_ids() == ["op1", "c"]

    def test_duplicate_hole_id_rejected(self):
        with pytest.raises(SketchSyntaxError):
            parse("fn f(x: f32) -> f32 { return [REAL:a] [OP:a] x; }")

    def test_unknown_variable(self):
        with pytest.raises(SketchSyntaxError, match="unknown variable"):
            parse("fn f(x: f32) -> f32 { return y; }")

    def test_syntax_error_carries_position(self):
        with pytest.raises(SketchSyntaxError) as err:
            parse("fn f(x: f32) -> f32 { return ; }")
        assert err.value.line >= 1 and err.value.col >= 1

    def test_two_input_sketch(self):
        ast = parse(ABLATION_SKETCH)
        assert ast.arity == 2
        kinds = [h.kind for h in ast.holes]
        assert kinds == ["COND", "REAL", "OP", "REAL", "OP", "REAL"]


class TestRoundtrip:
    @pytest.mark.parametrize("text", [MAIN_SKETCH, TRUE_PROGRAM, ABLATION_SKETCH])
    def test_parse_render_parse_fixed_corpus(self, text):
        ast = parse(text)
        assert parse(render(ast)) == ast

    def test_render_of_main_sketch_is_verbatim(self):
        assert render(parse(MAIN_SKETCH)) == MAIN_SKETCH

    def test_fuzzed_roundtrip(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            text = _random_sketch(rng)
            ast = parse(text)
            assert parse(render(ast)) == ast

    def test_empty_hole_render_has_no_brackets(self):
        ast = parse(TRUE_PROGRAM)
        assert "[" not in render(ast)


def _random_sketch(rng):
    def expr(depth):
        roll = rng.integers(0, 6)
        if depth >= 3 or roll == 0:
            return format_f32(rng.normal() * 10)
        if roll == 1:
            return "x"
        if roll == 2:
            return "[REAL]"
        if roll == 3:
            return f"({expr(depth + 1)})"
        op = rng.choice(["+", "-", "*", "/", "[OP]"])
        return f"{expr(depth + 1)} {op} {expr(depth + 1)}"

    n_branches = int(rng.integers(0, 3))
    parts = ["fn f(x: f32) -> f32 {"]
    for _ in range(n_branches):
        cmp_op = rng.choice(list(COND_OPS) + ["[COND]"])
        parts.append(f"if {expr(1)} {cmp_op} {expr(1)} {{ return {expr(1)}; }}")
    parts.append(f"return {expr(1)};")
    parts.append("}")
    return "\n".join(parts)


class TestEval:
    @pytest.mark.parametrize("x,expected", [
        (1.0, 2.1), (2.0, 4.2), (4.0, 16.8), (5.0, 21.0),
    ])
    def test_true_program_f32_bit_exact(self, x, expected):
        out = eval_program(parse(TRUE_PROGRAM), {}, [x])
        assert out == np.float32(expected)
        assert out.dtype == np.float32

    def test_learned_program_output(self):
        out = eval_program(parse(MAIN_SKETCH), LEARNED_ASSIGNMENT, [1.0])
        assert out == np.float32(3.9859228)

    def test_branch_order_first_true_wins(self):
        text = """fn f(x: f32) -> f32 {
            if x > 0.0 { return 1.0; }
            if x > 1.0 { return 2.0; }
            return 3.0; }"""
        assert eval_program(parse(text), {}, [5.0]) == np.float32(1.0)
        assert eval_program(parse(text), {}, [-1.0]) == np.float32(3.0)

    def test_division_by_zero_is_ieee(self):
        ast = parse("fn f(x: f32) -> f32 { return 1.0 / x; }")
        assert np.isinf(eval_program(ast, {}, [0.0]))

    def test_total_on_random_assignments(self):
        ast = parse(MAIN_SKETCH)
        rng = np.random.default_rng(5)
        for _ in range(200):
            assignment = {
                "cond0": int(rng.integers(0, 6)),
                "real1": float(rng.normal() * 100),
                "real2": float(rng.normal() * 100),
                "op3": int(rng.integers(0, 4)),
                "op4": int(rng.integers(0, 4)),
                "real5": float(rng.normal() * 100),
            }
            out = eval_program(ast, assignment, [rng.normal()])
            assert out.dtype == np.float32

    @pytest.mark.parametrize("changes,x,expected", [
        ({"real1": 1e39}, 1.0, 1.1321394),  # a REAL beyond f32: +inf
        ({"real5": 3e38}, 3e38, np.inf),    # 3e38 * 3e38 overflows
        ({}, 1e39, np.inf),                 # an input beyond f32
    ])
    def test_overflow_is_silent(self, changes, x, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = eval_program(parse(MAIN_SKETCH),
                               {**LEARNED_ASSIGNMENT, **changes}, [x])
        assert out == np.float32(expected)

    def test_compiled_once_and_equality_unchanged(self):
        program, again = parse(MAIN_SKETCH), parse(MAIN_SKETCH)
        eval_program(program, LEARNED_ASSIGNMENT, [1.0])
        assert program._plan is program._plan
        assert program == again and hash(program) == hash(again)

    def test_missing_hole_rejected(self):
        with pytest.raises(SketchError, match="missing"):
            eval_program(parse(MAIN_SKETCH), {}, [1.0])

    @pytest.mark.parametrize("index", [-1, 6])
    def test_category_index_out_of_range_rejected(self, index):
        with pytest.raises(SketchError, match="out of range"):
            eval_program(parse(MAIN_SKETCH),
                         {**LEARNED_ASSIGNMENT, "cond0": index}, [1.0])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SketchError, match="arity"):
            eval_program(parse(TRUE_PROGRAM), {}, [1.0, 2.0])


class TestFitness:
    def test_perfect_match_is_zero(self):
        # assignment reproducing the generating program exactly
        assignment = {
            "cond0": COND_OPS.index(">"),
            "real1": 3.5,
            "real2": 4.2,
            "op3": OP_OPS.index("*"),
            "op4": OP_OPS.index("*"),
            "real5": 2.1,
        }
        fitness = SpecFitness(parse(MAIN_SKETCH), MAIN_SPEC)
        assert fitness(assignment) == 0.0

    def test_learned_assignment_mse(self):
        fitness = SpecFitness(parse(MAIN_SKETCH), MAIN_SPEC)
        outputs = fitness.predicted_outputs(LEARNED_ASSIGNMENT)
        expected = np.array([3.9859228, 7.9718456, 15.943691, 19.929615],
                            dtype=np.float32)
        assert np.array_equal(outputs, expected)
        # mse computed independently in float64 from the printed vectors
        truth = MAIN_SPEC.outputs.astype(np.float64)
        mse = ((outputs.astype(np.float64) - truth) ** 2).mean()
        assert fitness(LEARNED_ASSIGNMENT) == pytest.approx(-mse)
        assert mse == pytest.approx(4.92, abs=0.01)

    def test_vo_outputs_same_formula(self):
        vo_outputs = np.array([2.1309583, 4.2619166, 16.501104, 20.62638],
                              dtype=np.float32)
        truth = MAIN_SPEC.outputs.astype(np.float64)
        mse = ((vo_outputs.astype(np.float64) - truth) ** 2).mean()
        assert mse == pytest.approx(0.058430371, abs=1e-6)

    def test_population_path_matches_scalar(self):
        fitness = SpecFitness(parse(MAIN_SKETCH), MAIN_SPEC)
        rng = np.random.default_rng(3)
        draws = [rng.integers(0, 6, size=8), rng.normal(size=8),
                 rng.normal(size=8), rng.integers(0, 4, size=8),
                 rng.integers(0, 4, size=8), rng.normal(size=8)]
        batch = fitness.population(draws)
        for i in range(8):
            member = tuple(d[i] for d in draws)
            assert fitness(member) == batch[i]

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            Specification(np.zeros((0, 1)), np.zeros(0))


class TestRender:
    def test_learned_assignment_matches_reference_listing(self):
        text = render(parse(MAIN_SKETCH), LEARNED_ASSIGNMENT)
        # identical modulo whitespace and the function's own name
        got = norm_tokens(text.replace("prog_sketch", "prog_output"))
        assert got == norm_tokens(LEARNED_LISTING)

    def test_rendered_constants_reparse_bit_identical(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            v = np.float32(rng.normal() * 10.0 ** rng.integers(-3, 4))
            assert np.float32(float(format_f32(v))) == v


class TestHolesToDistributions:
    def test_main_sketch_families(self):
        params = holes_to_distributions(parse(MAIN_SKETCH))
        kinds = [(type(p).__name__, getattr(p, "k", None)) for p in params]
        assert kinds == [
            ("CategoricalParams", 6), ("GaussianParams", None),
            ("GaussianParams", None), ("CategoricalParams", 4),
            ("CategoricalParams", 4), ("GaussianParams", None),
        ]

    def test_hole_free_ast_gives_empty_set(self):
        assert holes_to_distributions(parse(TRUE_PROGRAM)) == []

    def test_ablation_sketch_inventory_order(self):
        params = holes_to_distributions(parse(ABLATION_SKETCH), PROBS)
        ks = [getattr(p, "k", "real") for p in params]
        assert ks == [6, "real", 4, "real", 4, "real"]
        for p in params:
            if isinstance(p, CategoricalParams):
                assert p.mode == PROBS
            else:
                assert isinstance(p, GaussianParams)
