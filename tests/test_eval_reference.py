"""``eval_batch`` against a scalar f32 reference interpreter, bit for bit.

The reference walks the AST once per member and input row with NumPy f32
scalars and returns from the first branch whose guard is not 0.0.  It is
the specification of the evaluator's semantics and lives only here.  Every
result must match it in its bits, except that any NaN matches any NaN.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disnes.harness import ABLATION_SKETCH, MAIN_SKETCH, TRUE_PROGRAM
from disnes.sketch import (
    COND_OPS, OP_OPS, REAL, Hole, Neg, Num, Var, eval_batch,
    format_f32, parse,
)

_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv,
}

SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5, 3e38, -3e38, 1e39,
            1e-45)


def reference(program, assignment, row):
    """One member on one input row; comparisons give f32 0.0 / 1.0."""
    def ev(node):
        if isinstance(node, Num):
            return np.float32(node.value)
        if isinstance(node, Var):
            return np.float32(row[node.index])
        if isinstance(node, Hole):
            return np.float32(assignment[node.id])
        if isinstance(node, Neg):
            return -ev(node.operand)
        op = node.op
        if isinstance(op, Hole):
            op = op.categories[int(assignment[op.id])]
        return np.float32(_OPS[op](ev(node.left), ev(node.right)))

    with np.errstate(all="ignore"):
        for cond, expr in program.branches:
            if ev(cond) != 0.0:
                return ev(expr)
        return ev(program.else_expr)


def assert_matches_reference(program, hole_values, inputs):
    got = eval_batch(program, hole_values, inputs)
    lam = next((len(v) for v in hole_values.values()), 1)
    with np.errstate(over="ignore"):
        rows = np.asarray(inputs, dtype=np.float32)
    want = np.array([[reference(program,
                                {h: v[m] for h, v in hole_values.items()}, r)
                      for r in rows] for m in range(lam)], dtype=np.float32)
    assert got.dtype == np.float32 and got.shape == want.shape
    # IEEE 754 leaves a NaN result's sign and payload open, and NumPy's
    # scalar and vector loops keep different operands of NaN + NaN and
    # NaN * NaN; every other result, ±0 and ±inf included, must match bits
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.uint32)[~nan],
                                  want.view(np.uint32)[~nan])


def wide_shaped(names, guards):
    """The benchmark's generated shape: guarded ``[REAL] [OP] x [OP] [REAL]``
    branches over ``x [COND] [REAL]`` guards, then ``x [OP] [REAL] [OP] x``."""
    args = ", ".join(f"x{i}: f32" for i in range(3))
    lines = [f"fn wide({args}) -> f32 {{"]
    for a, b in guards:
        lines.append(f"if x{a} [COND] [REAL] {{ return [REAL] [OP] x{b} "
                     f"[OP] [REAL]; }}")
    lines.append(f"return x{names[0]} [OP] [REAL] [OP] x{names[1]}; }}")
    return "\n".join(lines)


FIXED = {
    "main": MAIN_SKETCH,
    "ablation": ABLATION_SKETCH,
    "wide": wide_shaped((2, 0), ((0, 1), (1, 2), (2, 2), (0, 0))),
    "hole_free": TRUE_PROGRAM,
    "comparison_operand": (
        "fn f(x: f32) -> f32 { if (x [COND] 1.0) - 1.0 { return "
        "(x < [REAL]) * 2.0 + (x [COND] [REAL]); } return -(x > 0.0); }"),
}


def special_population(program, lam):
    """Every REAL hole runs through SPECIALS and every operator hole
    through its categories, each hole shifted so members mix them."""
    values = {}
    for shift, hole in enumerate(program.holes):
        picks = np.arange(lam) + 3 * shift
        if hole.kind == REAL:
            values[hole.id] = np.array(SPECIALS)[picks % len(SPECIALS)]
        else:
            values[hole.id] = picks % len(hole.categories)
    return values


@pytest.mark.parametrize("name", sorted(FIXED))
def test_special_values_match_reference(name):
    program = parse(FIXED[name])
    rows = [(v, SPECIALS[(i + 4) % len(SPECIALS)], SPECIALS[(i + 7) % len(SPECIALS)])
            for i, v in enumerate(SPECIALS)]
    inputs = np.array(rows)[:, :program.arity]
    population = special_population(program, 3 * len(SPECIALS))
    assert_matches_reference(program, population, inputs)
    for member in range(4):  # lam = 1
        assert_matches_reference(
            program, {h: v[member:member + 1] for h, v in population.items()},
            inputs)


values_f32 = st.one_of(st.sampled_from(SPECIALS), st.floats(width=32),
                       st.floats())
literals = st.floats(-1e4, 1e4, allow_nan=False, width=32).map(format_f32)


@st.composite
def grammar_sketches(draw):
    arity = draw(st.integers(1, 3))
    leaf = st.one_of(st.sampled_from([f"x{i}" for i in range(arity)]),
                     literals, st.just("[REAL]"))

    def binary(children, ops):
        return st.tuples(children, st.sampled_from(ops), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})")

    expr = st.recursive(leaf, lambda c: st.one_of(
        binary(c, list(OP_OPS) + ["[OP]"]),
        binary(c, list(COND_OPS) + ["[COND]"]),
        c.map(lambda e: f"-({e})")), max_leaves=8)
    args = ", ".join(f"x{i}: f32" for i in range(arity))
    body = [f"if {c} {{ return {e}; }}"
            for c, e in draw(st.lists(st.tuples(expr, expr), max_size=3))]
    return f"fn f({args}) -> f32 {{ {' '.join(body)} return {draw(expr)}; }}"


sketches = st.one_of(
    st.sampled_from(sorted(FIXED.values())),
    st.builds(wide_shaped, st.tuples(st.integers(0, 2), st.integers(0, 2)),
              st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       max_size=4)),
    grammar_sketches())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eval_batch_matches_reference(data):
    program = parse(data.draw(sketches))
    lam = data.draw(st.integers(1, 4))
    hole_values = {}
    for hole in program.holes:
        values = (values_f32 if hole.kind == REAL
                  else st.integers(0, len(hole.categories) - 1))
        hole_values[hole.id] = np.array(
            data.draw(st.lists(values, min_size=lam, max_size=lam)))
    n = data.draw(st.integers(1, 3))
    inputs = np.array(data.draw(st.lists(
        st.lists(values_f32, min_size=program.arity,
                 max_size=program.arity), min_size=n, max_size=n)))
    assert_matches_reference(program, hole_values, inputs)
