import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disnes.distributions import LOGITS, CategoricalParams, GaussianParams
from disnes.harness import ABLATION_SKETCH, MAIN_SKETCH, MAIN_SPEC, TRUE_PROGRAM
from disnes.sketch import (
    COND_OPS, MAX_DEPTH, OP_OPS,
    SketchError, SketchProblem, SketchSyntaxError, Specification, SpecFitness,
    check_params_fit, eval_batch, eval_program, format_f32,
    holes_to_distributions, parse, render,
)
from test_eval_reference import (
    SPECIALS, assert_matches_reference, special_population,
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

    def test_duplicate_argument_name_rejected(self):
        # a second ``x`` would read input column 0 and ignore input 1
        text = "fn f(x: f32, x: f32) -> f32 { return x [OP] [REAL]; }"
        with pytest.raises(SketchSyntaxError,
                           match="duplicate argument name 'x'") as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, text.index("x:", 6) + 1)

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


@st.composite
def grammar_sketches(draw):
    """Sketch text from the grammar, and whether one of its literals lies
    beyond the f32 range.  An expression drawn with ``budget`` has at most
    ``budget`` levels of operators and of nesting, so every expression
    stays within ``MAX_DEPTH``."""
    args = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    named, too_big = [], []

    def hole(kind):
        if draw(st.booleans()):
            named.append(f"h{len(named)}")
            return f"[{kind}:{named[-1]}]"
        return f"[{kind}]"

    def literal():
        if draw(st.integers(0, 9)) == 0:  # 1e39 and up
            whole = draw(st.from_regex(r"[1-9][0-9]{39,44}", fullmatch=True))
            too_big.append(whole)
        else:
            whole = draw(st.from_regex(r"[0-9]{0,12}", fullmatch=True))
        fraction = draw(st.from_regex(r"[0-9]{0,6}", fullmatch=True))
        if fraction:
            return f"{whole}.{fraction}"
        return whole + draw(st.sampled_from(["", "."])) if whole else ".5"

    def operand(budget):
        form = draw(st.sampled_from(
            ["leaf"] * 6 + ["neg", "paren", "nest"]
            if budget else ["leaf"]))
        if form == "neg":
            return "-" + operand(budget - 1)
        if form == "paren":
            return f"({expression(budget - 1)})"
        if form == "nest":
            k = draw(st.integers(1, budget))
            return "(" * k + expression(budget - k) + ")" * k
        leaf = draw(st.sampled_from(["var", "literal", "real"]))
        if leaf == "var":
            return draw(st.sampled_from(args))
        return literal() if leaf == "literal" else hole("REAL")

    def operator():
        op = draw(st.sampled_from(
            list(COND_OPS) + list(OP_OPS) + ["[COND]", "[OP]"]))
        return hole(op[1:-1]) if op.startswith("[") else op

    def expression(budget):
        n = draw(st.integers(1, min(3, budget + 1)))
        text = operand(budget - n + 1)
        for _ in range(n - 1):
            text += f" {operator()} {operand(budget - n + 1)}"
        return text

    top = MAX_DEPTH
    body = [f"if {expression(top)} {{ return {expression(top)}; }}"
            for _ in range(draw(st.integers(0, 3)))]
    header = ", ".join(f"{a}: f32" for a in args)
    text = (f"fn f({header}) -> f32 {{ {' '.join(body)} "
            f"return {expression(top)}; }}")
    return text, bool(too_big)


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

    @settings(max_examples=300, deadline=None)
    @given(grammar_sketches())
    def test_grammar_roundtrip(self, sketch):
        text, too_big = sketch
        if too_big:
            with pytest.raises(SketchSyntaxError, match="beyond the f32"):
                parse(text)
        else:
            ast = parse(text)
            assert parse(render(ast)) == ast


def _expression_sketch(expression):
    return f"fn f(x: f32) -> f32 {{ return {expression}; }}"


# column of the expression in ``_expression_sketch``
_COLUMN = len(_expression_sketch("")) - len("; }") + 1


class TestLimits:
    # an expression ``levels`` deep, and where its tokens that open a level
    # are: the first at ``first``, one every ``step`` characters
    @pytest.mark.parametrize("expression,first,step", [
        (lambda levels: "(" * levels + "x" + ")" * levels, 0, 1),
        (lambda levels: "-" * levels + "x", 0, 1),
        (lambda levels: "-" * levels + "1.5", 0, 1),  # folds to a literal
        (lambda levels: " + ".join(["x"] * (levels + 1)), 2, 4),
        (lambda levels: " / ".join(["x"] * (levels + 1)), 2, 4),
        (lambda levels: " [OP] ".join(["x"] * (levels + 1)), 2, 7),
        (lambda levels: " < ".join(["x"] * (levels + 1)), 2, 4),
        (lambda levels: "x + (" * levels + "x" + ")" * levels, 4, 5),
    ], ids=["parentheses", "unary", "unary-literal", "sum", "quotient",
            "operator-hole", "comparison", "nested-sum"])
    def test_depth_limit(self, expression, first, step):
        ast = parse(_expression_sketch(expression(MAX_DEPTH)))
        assert parse(render(ast)) == ast
        with pytest.raises(SketchSyntaxError,
                           match=f"than {MAX_DEPTH}") as err:
            parse(_expression_sketch(expression(MAX_DEPTH + 1)))
        # the token that opens the level one too many
        assert err.value.col == _COLUMN + first + step * MAX_DEPTH

    @pytest.mark.parametrize("digit", ["\u0663", "\uff13", "\u0969"],
                             ids=["arabic-indic", "fullwidth", "devanagari"])
    def test_non_ascii_digit_rejected(self, digit):
        # literals are ASCII decimals, as identifiers are ASCII names
        with pytest.raises(SketchSyntaxError,
                           match="unexpected character") as err:
            parse(_expression_sketch("x * " + digit))
        assert err.value.col == _COLUMN + 4
        with pytest.raises(SketchSyntaxError) as err:
            parse(_expression_sketch("x * 1" + digit))
        assert err.value.col == _COLUMN + 5

    def test_literal_beyond_f32_range_rejected(self):
        with pytest.raises(SketchSyntaxError, match="beyond the f32") as err:
            parse(_expression_sketch("x * 1" + "0" * 40 + ".0"))
        assert err.value.col == _COLUMN + 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ast = parse(_expression_sketch(format_f32(np.finfo("f4").max)))
        assert ast.else_expr.value == np.finfo("f4").max
        assert parse(render(ast)) == ast


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

    # a guard that is a comparison goes to the branch fold as its bools;
    # any other guard is true where its value is not 0.0, NaN included
    GUARDS = {
        "cond_hole": (
            "fn f(x: f32, y: f32) -> f32 { if x [COND] y { return x - y; } "
            "if [REAL] [COND] y { return [REAL]; } return y; }"),
        "fixed_comparison": (
            "fn f(x: f32, y: f32) -> f32 { if x >= [REAL] { return x * 2.0; "
            "} if x != x { return 1.0; } if (x + y) < y { return y; } "
            "return -x; }"),
        "nan_arithmetic": (
            "fn f(x: f32, y: f32) -> f32 { if x * [REAL] { return 1.0; } "
            "if x - x { return 2.0; } if -(x [COND] y) { return 3.0; } "
            "if (x < y) + [REAL] { return 4.0; } return 5.0; }"),
    }

    @pytest.mark.parametrize("guards", sorted(GUARDS))
    def test_guard_kinds_match_reference(self, guards):
        program = parse(self.GUARDS[guards])
        inputs = np.array([(v, SPECIALS[(i + 4) % len(SPECIALS)])
                           for i, v in enumerate(SPECIALS)]
                          + [(v, v) for v in SPECIALS])
        population = special_population(program, 5 * len(SPECIALS))
        assert_matches_reference(program, population, inputs)

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

    @pytest.mark.parametrize("body", [
        "return 2.5;", "return x;", "return [REAL];", "return x [OP] 1.5;",
        "if 1.0 [COND] 2.0 { return 1.5; } return 2.5;",
    ])
    def test_eval_batch_result_is_the_callers(self, body):
        """A fresh, writable, C-contiguous (lam, n) array on every call,
        also where the program returns a literal, an input or a REAL hole
        as it is: writing it leaves the next evaluation alone."""
        program = parse(f"fn f(x: f32) -> f32 {{ {body} }}")
        draws = np.ones((len(program.holes), 3))
        first = eval_batch(program, draws, MAIN_SPEC.inputs)
        want = first.copy()
        first[...] = np.nan
        second = eval_batch(program, draws, MAIN_SPEC.inputs)
        for out in (first, second):
            assert out.shape == (3, 4) and out.dtype == np.float32
            assert out.flags.writeable and out.flags.c_contiguous
        assert not np.shares_memory(first, second)
        assert second.tobytes() == want.tobytes()

    def test_inputs_changed_in_place_are_read_again(self):
        program = parse("fn f(x: f32) -> f32 { return x * 2.0; }")
        inputs = np.array([[1.0], [2.0]], dtype=np.float32)
        draws = np.empty((0, 2))
        assert eval_batch(program, draws, inputs).tolist() == [[2.0, 4.0]] * 2
        inputs[0, 0] = 5.0
        assert eval_batch(program, draws, inputs).tolist() == \
            [[10.0, 4.0]] * 2

    def test_read_only_view_of_changed_memory_is_read_again(self):
        """A read-only view does not own its memory, which its base can
        still write: its tiles are not reused."""
        program = parse("fn f(x: f32) -> f32 { return x * 2.0; }")
        base = np.ones((2, 1), dtype=np.float32)
        view = base.view()
        view.flags.writeable = False
        draws = np.zeros((0, 2))
        assert eval_batch(program, draws, view).tolist() == [[2.0, 2.0]] * 2
        base[:] = 5.0
        assert eval_batch(program, draws, view).tolist() == \
            [[10.0, 10.0]] * 2

    @pytest.mark.parametrize("inputs, outputs", [
        ([[1.0], [2.0]], [0.0, 0.0]), ([1.0, 2.0], [0.0]),
    ], ids=["2-D", "1-D"])
    def test_specification_arrays_are_immutable(self, inputs, outputs):
        """The evaluator reuses its tiles only of inputs over ``bytes``: a
        specification's inputs are such an array, 2-D or 1-D, and so are
        its outputs, and neither can be made writeable."""
        spec = Specification(inputs, outputs)
        for array in (spec.inputs, spec.outputs):
            assert type(array.base) is bytes and not array.flags.writeable
            with pytest.raises(ValueError):
                array.flags.writeable = True

    @pytest.mark.parametrize("use", ["eval_batch", "population"])
    def test_specification_cannot_change_under_a_cache(self, use):
        """Turning a specification's arrays writeable, writing them and
        turning them read-only again cannot leave the evaluator's tiles or
        the fitness's target stale: what ``eval_batch`` and ``population``
        give afterwards is what fresh copies of the arrays give."""
        program = parse("fn f(x: f32) -> f32 { return x * 2.0; }")
        spec = Specification([[1.0], [2.0]], [2.0, 4.0])
        draws = np.zeros((0, 3))

        def run(spec, fitness):
            if use == "eval_batch":
                return eval_batch(program, draws, spec.inputs)
            return fitness.population(draws)

        fitness = SpecFitness(program, spec)
        run(spec, fitness)  # fill the caches
        for array in (spec.inputs, spec.outputs):
            try:
                array.flags.writeable = True
                array[0] = 5.0
                array.flags.writeable = False
            except ValueError:
                pass
        fresh = Specification(spec.inputs.copy(), spec.outputs.copy())
        assert run(spec, fitness).tobytes() == \
            run(fresh, SpecFitness(program, fresh)).tobytes()

    def test_outputs_changed_in_place_are_read_again(self):
        """The fitness reuses its tiled target only of outputs over bytes:
        a writable array put in a specification's place is read again."""
        program = parse("fn f(x: f32) -> f32 { return x * 2.0; }")
        spec = Specification([[1.0], [2.0]], [2.0, 4.0])
        fitness, draws = SpecFitness(program, spec), np.zeros((0, 1))
        spec.outputs = np.array([2.0, 4.0], dtype=np.float32)
        assert fitness.population(draws).tolist() == [0.0]
        spec.outputs[0] = 4.0
        assert fitness.population(draws).tolist() == [-2.0]

    def test_missing_hole_rejected(self):
        with pytest.raises(SketchError, match="missing"):
            eval_program(parse(MAIN_SKETCH), {}, [1.0])

    @pytest.mark.parametrize("index", [-1, 6, 1.5, True, np.False_], ids=str)
    def test_category_index_out_of_range_rejected(self, index):
        """Evaluation and rendering take a COND/OP value only as a whole
        number in 0..K-1 and name the hole otherwise: a gather would wrap
        -1 around and truncate 1.5, and a boolean would pass for 1 or 0,
        as params snapshots may not."""
        program = parse(MAIN_SKETCH)
        assignment = {**LEARNED_ASSIGNMENT, "cond0": index}
        for use in (lambda a: eval_program(program, a, [1.0]),
                    lambda a: render(program, a),
                    SpecFitness(program, MAIN_SPEC).predicted_outputs):
            with pytest.raises(SketchError, match="hole 'cond0': category "
                                                  "index .* out of range"):
                use(assignment)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SketchError, match="arity"):
            eval_program(parse(TRUE_PROGRAM), {}, [1.0, 2.0])

    @pytest.mark.parametrize("count", [5, 7])
    def test_assignment_of_the_wrong_length_rejected(self, count):
        """Values in hole order for fewer or more holes than the program
        has name both counts, where zipping them with the holes would drop
        a seventh value without a word."""
        program = parse(MAIN_SKETCH)
        values = (2, 3.5, 4.2, 2, 2, 2.1, 99.0)[:count]
        for use in (SpecFitness(program, MAIN_SPEC).predicted_outputs,
                    lambda a: eval_program(program, a, [1.0])):
            with pytest.raises(SketchError,
                               match=f"{count} values for 6 holes"):
                use(values)


def score(fitness, assignment):
    """The fitness of one assignment, from its program's outputs."""
    return -fitness.mean_squared_error(fitness.predicted_outputs(assignment))


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
        assert score(fitness, assignment) == 0.0

    def test_learned_assignment_mse(self):
        fitness = SpecFitness(parse(MAIN_SKETCH), MAIN_SPEC)
        outputs = fitness.predicted_outputs(LEARNED_ASSIGNMENT)
        expected = np.array([3.9859228, 7.9718456, 15.943691, 19.929615],
                            dtype=np.float32)
        assert np.array_equal(outputs, expected)
        # mse computed independently in float64 from the printed vectors
        truth = MAIN_SPEC.outputs.astype(np.float64)
        mse = ((outputs.astype(np.float64) - truth) ** 2).mean()
        assert score(fitness, LEARNED_ASSIGNMENT) == pytest.approx(-mse)
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
            assert score(fitness, member) == batch[i]

    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("rows", [50, 500], ids=["lam", "cells-x-lam"])
    def test_mean_squared_error_keeps_the_bits_of_mean(self, rows, n):
        """One population (lam rows) or a batch of cells (R * lam rows):
        every row's MSE equals ``ndarray.mean(axis=-1)`` bit for bit,
        ties and values near the f32 limit included."""
        rng = np.random.default_rng(n + rows)
        spec = Specification(rng.normal(size=(n, 1)), rng.normal(size=n))
        fitness = SpecFitness(parse(MAIN_SKETCH), spec)
        for scale in (1.0, 1e3, 1e19, 3e38):
            outputs = rng.uniform(-scale, scale, (rows, n)).astype(np.float32)
            outputs[::7] = np.round(outputs[::7])  # ties
            outputs[::11, 0] = np.float32(3.4e38)
            err = (outputs.astype(np.float64)
                   - spec.outputs.astype(np.float64))
            want = (err * err).mean(axis=-1)
            assert fitness.mean_squared_error(outputs).tobytes() == \
                want.tobytes()
            assert fitness.mean_squared_error(outputs[0]) == want[0]

    def test_specification_keeps_read_only_copies(self):
        inputs, outputs = np.ones((2, 1), np.float32), np.ones(2, np.float32)
        spec = Specification(inputs, outputs)
        inputs[0, 0] = outputs[0] = 7.0
        assert spec.inputs[0, 0] == spec.outputs[0] == 1.0
        assert not spec.inputs.flags.writeable
        assert not spec.outputs.flags.writeable

    def test_specification_and_problem_compare_by_value(self):
        inputs = [[1.0], [2.0]]
        spec = Specification(inputs, [3.0, 4.0])
        assert spec == Specification(np.array(inputs), (3.0, 4.0))
        assert spec != Specification(inputs, [3.0, 5.0])
        assert spec != Specification([[1.0], [2.5]], [3.0, 4.0])
        assert spec != Specification([[1.0, 0.0], [2.0, 0.0]], [3.0, 4.0])
        unknown = Specification([[np.nan]], [1.0])
        assert unknown == unknown
        assert unknown != Specification([[np.nan]], [1.0])
        program = parse(MAIN_SKETCH)
        assert SketchProblem(program, MAIN_SPEC) == SketchProblem(
            parse(MAIN_SKETCH), Specification(MAIN_SPEC.inputs.copy(),
                                              MAIN_SPEC.outputs.copy()))
        assert SketchProblem(program, MAIN_SPEC) != SketchProblem(
            program, Specification(MAIN_SPEC.inputs, MAIN_SPEC.outputs + 1))

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

    @pytest.mark.parametrize("value", [1e39, -1e39, float("nan")])
    def test_real_value_beyond_f32_range_rejected(self, value):
        # np.float32 would warn and write inf or nan, which parse rejects
        assignment = dict(LEARNED_ASSIGNMENT, real2=value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SketchError, match="hole 'real2'"):
                render(parse(MAIN_SKETCH), assignment)


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
        params = holes_to_distributions(parse(ABLATION_SKETCH))
        ks = [getattr(p, "k", "real") for p in params]
        assert ks == [6, "real", 4, "real", 4, "real"]
        for p in params:
            if isinstance(p, CategoricalParams):
                assert p.mode == LOGITS
                assert not p.values.any()
            else:
                assert isinstance(p, GaussianParams)


class TestCheckParamsFit:
    def test_the_sketch_own_snapshot_fits(self):
        program = parse(MAIN_SKETCH)
        check_params_fit(program, program.hole_ids(),
                         holes_to_distributions(program))

    @pytest.mark.parametrize("pick", [
        lambda ids: [],
        lambda ids: ids[:-1],
        lambda ids: [ids[0], ids[2], ids[1], *ids[3:]],
    ], ids=["empty", "short", "reordered"])
    def test_other_hole_ids_do_not_fit(self, pick):
        """A snapshot with no holes, without the last hole, or with the two
        REAL holes real1 and real2 swapped does not fit, though each
        distribution it holds is of the family the sketch's hole in its
        place needs."""
        program = parse(MAIN_SKETCH)
        by_id = dict(zip(program.hole_ids(), holes_to_distributions(program)))
        hole_ids = pick(program.hole_ids())
        with pytest.raises(SketchError, match="does not match the sketch's "
                                              "holes"):
            check_params_fit(program, hole_ids,
                             [by_id[hid] for hid in hole_ids])

    def test_fewer_params_than_hole_ids_do_not_fit(self):
        program = parse(MAIN_SKETCH)
        with pytest.raises(SketchError, match="does not match"):
            check_params_fit(program, program.hole_ids(),
                             holes_to_distributions(program)[:-1])
