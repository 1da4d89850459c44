"""A tiny Rust-flavored program DSL with typed holes.

Programs are guarded-branch functions over 32-bit floats::

    fn name(x: f32) -> f32
    {
      if <expr> { return <expr>; }
      return <expr>;
    }

Expressions are binary-operator trees over input variables, decimal
literals and hole tokens.  Holes come in three kinds:

* ``[COND]`` -- a comparison operator, category set ``< <= > >= == !=``
* ``[OP]``   -- an arithmetic operator, category set ``+ - * /``
* ``[REAL]`` -- a real-valued constant

An expression may be at most ``MAX_DEPTH`` levels deep, in operators on a
path from its root and in nested parentheses and unary minuses, and a
literal must lie in the f32 range; ``parse`` rejects anything else with a
:class:`SketchSyntaxError` at the offending token.

A hole may carry an explicit id (``[OP:op1]``); unnamed holes are
auto-numbered in source order (``cond0``, ``real1``, ...).  The category
sets are ordered as listed above and the index-to-operator mapping is part
of the file format.

Evaluation is IEEE 32-bit arithmetic with round-to-nearest-even, applied
elementwise, and is total and silent: division by zero and overflow follow
IEEE semantics without a warning, and any assignment yields an f32 result.
A program is compiled once into an evaluation plan (see ``eval_batch``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import (
    F32_MAX, LOGITS, PROBS, CategoricalParams, GaussianParams,
)

COND = "COND"
OP = "OP"
REAL = "REAL"

COND_OPS = ("<", "<=", ">", ">=", "==", "!=")
OP_OPS = ("+", "-", "*", "/")

# The binary operator levels, loosest first: each level's operator symbols
# and the kind of hole that binds there too.
_LEVELS = ((COND_OPS, COND), (("+", "-"), OP), (("*", "/"), None))

# How many levels deep an expression may go: operators on a path from its
# root to a leaf (``x + y`` has one level), and parentheses and unary
# minuses open at one point.  It keeps parsing, evaluation, rendering and
# comparison well inside Python's recursion limit.
MAX_DEPTH = 32


class SketchError(Exception):
    pass


class SketchSyntaxError(SketchError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float  # the float64 image of an f32 constant


@dataclass(frozen=True)
class Var:
    name: str
    index: int


@dataclass(frozen=True)
class Hole:
    id: str
    kind: str
    named: bool = False

    @property
    def categories(self):
        if self.kind == COND:
            return COND_OPS
        if self.kind == OP:
            return OP_OPS
        raise ValueError(f"{self.kind} holes have no category set")

    @property
    def token(self):
        """The hole as sketch source text."""
        return f"[{self.kind}:{self.id}]" if self.named else f"[{self.kind}]"


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: object  # operator symbol, or a COND/OP Hole
    left: object
    right: object


@dataclass(frozen=True)
class Program:
    name: str
    args: tuple
    branches: tuple  # of (condition expr, return expr)
    else_expr: object
    holes: tuple  # hole inventory in source order

    @property
    def arity(self):
        return len(self.args)

    def hole_ids(self):
        return [h.id for h in self.holes]

    @cached_property
    def _plan(self):
        """The compiled evaluator :func:`eval_batch` runs; built once per
        program.  Not a field, so ``==`` and the hash ignore it."""
        return _compile_program(self)


# --- Lexer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<hole>\[(?:COND|OP|REAL)(?::[A-Za-z_][A-Za-z0-9_]*)?\])
  | (?P<num>[0-9]+\.[0-9]+|[0-9]+\.|\.[0-9]+|[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>->|<=|>=|==|!=|[(){}<>,:;+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SketchSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            tokens.append(Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- Parser ----------------------------------------------------------------

class _Parser:
    """Recursive-descent parser.  Precedence, loosest first: the binary
    levels of ``_LEVELS`` (comparison, additive, multiplicative), then
    unary."""

    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.args = []
        self.holes = []
        self.hole_ids = set()
        self.nesting = 0  # parentheses and unary minuses now open
        self.depths = {}  # id of a BinOp or Neg -> its levels

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise SketchSyntaxError(message, tok.line, tok.col)

    def expect(self, text):
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}")
        return self.advance()

    def expect_ident(self):
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"expected identifier, found {tok.text!r}")
        return self.advance()

    def make_hole(self, tok):
        body = tok.text[1:-1]
        named = ":" in body
        if named:
            kind, hole_id = body.split(":", 1)
        else:
            kind = body
            hole_id = f"{kind.lower()}{len(self.holes)}"
        if hole_id in self.hole_ids:
            self.error(f"duplicate hole id {hole_id!r}", tok)
        hole = Hole(hole_id, kind, named)
        self.holes.append(hole)
        self.hole_ids.add(hole_id)
        return hole

    def enclosed(self, tok, parse):
        """``parse()`` inside the parenthesis or unary minus ``tok``, which
        must not nest deeper than ``MAX_DEPTH``."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels",
                       tok)
        node = parse()
        self.nesting -= 1
        return node

    def operation(self, tok, node, *operands):
        """``node``, the operation of ``tok`` on ``operands``, unless it
        has more than ``MAX_DEPTH`` levels of operators."""
        depth = 1 + max(self.depths.get(id(o), 0) for o in operands)
        if depth > MAX_DEPTH:
            self.error(f"expression deeper than {MAX_DEPTH} levels", tok)
        self.depths[id(node)] = depth
        return node

    def parse_program(self):
        self.expect("fn")
        name = self.expect_ident().text
        self.expect("(")
        while True:
            arg = self.expect_ident().text
            self.expect(":")
            self.expect("f32")
            self.args.append(arg)
            if self.peek().text == ",":
                self.advance()
                continue
            break
        self.expect(")")
        self.expect("->")
        self.expect("f32")
        self.expect("{")
        branches = []
        while self.peek().text == "if":
            self.advance()
            cond = self.binary()
            self.expect("{")
            self.expect("return")
            expr = self.binary()
            self.expect(";")
            self.expect("}")
            branches.append((cond, expr))
        self.expect("return")
        else_expr = self.binary()
        self.expect(";")
        self.expect("}")
        if self.peek().kind != "eof":
            self.error(f"unexpected trailing input {self.peek().text!r}")
        return Program(name, tuple(self.args), tuple(branches), else_expr,
                       tuple(self.holes))

    def binary(self, level=0):
        """A left-associative chain of the operators of ``_LEVELS[level]``
        over operands of the next level."""
        if level == len(_LEVELS):
            return self.unary()
        symbols, hole_kind = _LEVELS[level]
        left = self.binary(level + 1)
        while True:
            tok = self.peek()
            if tok.text in symbols:
                op = self.advance().text
            elif tok.kind == "hole" and hole_kind \
                    and tok.text.startswith(f"[{hole_kind}"):
                op = self.make_hole(self.advance())
            else:
                return left
            right = self.binary(level + 1)
            left = self.operation(tok, BinOp(op, left, right), left, right)

    def unary(self):
        tok = self.peek()
        if tok.text == "-":
            self.advance()
            operand = self.enclosed(tok, self.unary)
            if isinstance(operand, Num):
                return Num(-operand.value)
            return self.operation(tok, Neg(operand), operand)
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            with np.errstate(over="ignore"):
                value = float(np.float32(tok.text))
            if math.isinf(value):
                self.error(f"literal {tok.text} is beyond the f32 range", tok)
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            if tok.text not in self.args:
                self.error(f"unknown variable {tok.text!r}", tok)
            return Var(tok.text, self.args.index(tok.text))
        if tok.kind == "hole":
            if tok.text.startswith("[REAL"):
                return self.make_hole(self.advance())
            self.error(f"operator hole {tok.text} cannot stand as an operand", tok)
        if tok.text == "(":
            self.advance()
            expr = self.enclosed(tok, self.binary)
            self.expect(")")
            return expr
        self.error(f"expected expression, found {tok.text!r}")


def parse(text):
    """Parse sketch source text into a :class:`Program`."""
    return _Parser(text).parse_program()


# --- Evaluation ------------------------------------------------------------

_UFUNCS = {
    "<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    "==": np.equal, "!=": np.not_equal,
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
}


def _compile(node):
    """Compile an expression into ``fn(hole_values, inputs, members)``,
    which returns the node's f32 value, broadcastable to ``(lam, n)``;
    ``members`` is ``arange(lam)``."""
    if isinstance(node, Num):
        value = np.float32(node.value)
        return lambda hv, xs, members: value
    if isinstance(node, Var):
        col = node.index
        return lambda hv, xs, members: xs[:, col]
    if isinstance(node, Hole):  # a REAL hole: one constant per member
        hid = node.id
        return lambda hv, xs, members: (
            np.asarray(hv[hid], dtype=np.float32)[:, None])
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda hv, xs, members: np.negative(operand(hv, xs, members))
    left, right = _compile(node.left), _compile(node.right)
    if isinstance(node.op, Hole):
        return _operator_hole(node.op, left, right)
    ufunc = _UFUNCS[node.op]
    if node.op in COND_OPS:
        # comparison results feed back into arithmetic as 0.0 / 1.0
        return lambda hv, xs, members: ufunc(
            left(hv, xs, members), right(hv, xs, members)).astype(np.float32)
    return lambda hv, xs, members: ufunc(left(hv, xs, members),
                                         right(hv, xs, members))


def _operator_hole(hole, left, right):
    """A COND/OP hole: each candidate operator writes its result into one
    ``(K, lam, n)`` f32 buffer, and one gather picks each member's."""
    hid = hole.id
    ufuncs = tuple(_UFUNCS[sym] for sym in hole.categories)

    def pick(hv, xs, members):
        a, b = left(hv, xs, members), right(hv, xs, members)
        buf = np.empty((len(ufuncs), members.size, xs.shape[0]),
                       dtype=np.float32)
        for ufunc, out in zip(ufuncs, buf):
            ufunc(a, b, out=out)
        return buf[np.asarray(hv[hid], dtype=np.intp), members]
    return pick


def _compile_program(program):
    """The program as one function of ``(hole_values, inputs, members)``.

    Guards are tested in order, so the first true one wins: the branches
    are folded from the last to the first over the final expression.  A
    guard is true where its value is not 0.0, which makes NaN true.
    """
    def guard(node):
        value = _compile(node)
        return lambda hv, xs, members: value(hv, xs, members) != 0.0

    branches = [(guard(cond), _compile(expr))
                for cond, expr in reversed(program.branches)]
    final = _compile(program.else_expr)

    def run(hv, xs, members):
        out = final(hv, xs, members)
        for cond, value in branches:
            out = np.where(cond(hv, xs, members), value(hv, xs, members), out)
        return out
    return run


def eval_batch(program, hole_values, inputs):
    """Evaluate a population of assignments over all specification inputs.

    ``hole_values`` maps hole id to a length-``lam`` array (category index
    arrays for COND/OP holes, float arrays for REAL holes); ``inputs`` is
    an ``(n, arity)`` float32 array.  Returns a ``(lam, n)`` float32 array.
    The program is compiled on its first evaluation and the plan is kept
    on it.  Every IEEE exception is silent, so evaluation is total:
    overflow, division by zero, invalid operations, and REAL values or
    inputs beyond the f32 range, which become ±inf.
    """
    lam = next((np.asarray(v).shape[0] for v in hole_values.values()), 1)
    with np.errstate(all="ignore"):
        inputs = np.asarray(inputs, dtype=np.float32)
        out = program._plan(hole_values, inputs, np.arange(lam))
    shape = (lam, inputs.shape[0])
    return out if out.shape == shape else np.broadcast_to(out, shape)


def eval_program(program, assignment, input_vector):
    """Evaluate one assignment on one input vector, in f32 semantics.

    ``assignment`` maps hole id to a category index (COND/OP) or real
    value (REAL).  Returns a ``numpy.float32``.
    """
    missing = [h.id for h in program.holes if h.id not in assignment]
    if missing:
        raise SketchError(f"assignment missing holes: {missing}")
    draws = _one_member(program, [assignment[h.id] for h in program.holes])
    inputs = np.asarray(input_vector).reshape(1, -1)
    if inputs.shape[1] != program.arity:
        raise SketchError(
            f"input arity {inputs.shape[1]} != program arity {program.arity}")
    return eval_batch(program, dict(zip(program.hole_ids(), draws)),
                      inputs)[0, 0]


def _one_member(program, values):
    """One assignment's values (in hole order) as length-1 draw arrays.

    A COND/OP value must be one of its hole's category indices; the
    evaluator's gather would wrap a negative one around.
    """
    for hole, value in zip(program.holes, values):
        if hole.kind != REAL and not 0 <= value < len(hole.categories):
            raise SketchError(
                f"hole {hole.id!r}: category index {value!r} out of range")
    return [np.asarray([v]) for v in values]


# --- Specification and fitness ---------------------------------------------

@dataclass
class Specification:
    """Input/output pairs in 32-bit float semantics."""

    inputs: np.ndarray   # (n, arity) float32
    outputs: np.ndarray  # (n,) float32

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float32))
        self.outputs = np.asarray(self.outputs, dtype=np.float32).reshape(-1)
        if self.inputs.shape[0] == 0:
            raise ValueError("specification must be non-empty")
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ValueError("inputs and outputs must have equal length")


class SpecFitness:
    """Fitness = negated mean squared error against a specification.

    Callable on a single assignment (tuple of per-hole values in hole
    inventory order, or a dict keyed by hole id); also exposes the batched
    ``population`` path consumed by the estimators.  Squared errors are
    accumulated in 64-bit.
    """

    def __init__(self, program, spec):
        if spec.inputs.shape[1] != program.arity:
            raise SketchError(
                f"specification arity {spec.inputs.shape[1]} != "
                f"program arity {program.arity}")
        self.program = program
        self.spec = spec
        self.hole_ids = program.hole_ids()

    def _outputs(self, draws):
        hole_values = dict(zip(self.hole_ids, map(np.asarray, draws)))
        return eval_batch(self.program, hole_values, self.spec.inputs)

    def mean_squared_error(self, outputs):
        """MSE of ``outputs`` against the specification (last axis): the
        bits of ``mean(axis=-1)`` without the Python layer of
        ``ndarray.mean``."""
        err = outputs.astype(np.float64) - self.spec.outputs.astype(np.float64)
        return np.add.reduce(err * err, axis=-1) / err.shape[-1]

    def population(self, draws):
        """Fitness of ``lam`` members given per-hole draw arrays."""
        return -self.mean_squared_error(self._outputs(draws))

    def predicted_outputs(self, assignment):
        """f32 outputs of the assigned program on the specification inputs."""
        if isinstance(assignment, dict):
            assignment = [assignment[hid] for hid in self.hole_ids]
        return self._outputs(_one_member(self.program, assignment))[0]

    def __call__(self, assignment):
        outputs = self.predicted_outputs(assignment)
        return -float(self.mean_squared_error(outputs))


# --- Rendering -------------------------------------------------------------

def format_f32(value):
    """Shortest decimal that round-trips to the same f32."""
    return np.format_float_positional(np.float32(value), unique=True, trim="0")


def _level(op):
    """The index in ``_LEVELS`` of an operator symbol or operator hole."""
    return next(level for level, (symbols, hole_kind) in enumerate(_LEVELS)
                if (op.kind == hole_kind if isinstance(op, Hole)
                    else op in symbols))


def _render_expr(node, assignment, parent_level=0):
    if isinstance(node, Num):
        return format_f32(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _render_expr(node.operand, assignment, len(_LEVELS))
    if isinstance(node, Hole):
        if assignment is None:
            return node.token
        value = assignment[node.id]
        if not abs(value) <= F32_MAX:
            raise SketchError(f"hole {node.id!r}: {value} is beyond the f32 "
                              "range")
        return format_f32(value)
    op = node.op
    if not isinstance(op, Hole):
        op_text = op
    elif assignment is not None:
        op_text = op.categories[int(assignment[op.id])]
    else:
        op_text = op.token
    level = _level(op)
    left = _render_expr(node.left, assignment, level)
    right = _render_expr(node.right, assignment, level + 1)
    text = f"{left} {op_text} {right}"
    return f"({text})" if level < parent_level else text


def render(program, assignment=None):
    """Render a program back to sketch source.

    Without an assignment, hole tokens are emitted verbatim; with one,
    concrete operators and shortest-round-trip f32 literals are emitted,
    and a REAL value beyond the f32 range (or NaN) raises
    :class:`SketchError`.
    """
    if assignment is not None:
        missing = [h.id for h in program.holes if h.id not in assignment]
        if missing:
            raise SketchError(f"assignment missing holes: {missing}")
    args = ", ".join(f"{a}: f32" for a in program.args)
    lines = [f"fn {program.name}({args}) -> f32", "{"]
    for cond, expr in program.branches:
        lines.append(f"  if {_render_expr(cond, assignment)}")
        lines.append("  {")
        lines.append(f"    return {_render_expr(expr, assignment)};")
        lines.append("  }")
        lines.append("")
    lines.append(f"  return {_render_expr(program.else_expr, assignment)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- Hole inventory to search distributions --------------------------------

def holes_to_distributions(program, categorical_mode=LOGITS):
    """One search distribution per hole, in inventory order.

    COND holes get a 6-way categorical, OP holes a 4-way categorical and
    REAL holes a standard Gaussian; categoricals start uniform and
    Gaussians at (mu=0, log_sigma=0).
    """
    params = []
    for hole in program.holes:
        if hole.kind == REAL:
            params.append(GaussianParams(0.0, 0.0))
        else:
            k = len(hole.categories)
            if categorical_mode == LOGITS:
                params.append(CategoricalParams(np.zeros(k), mode=LOGITS))
            else:
                params.append(CategoricalParams(np.full(k, 1.0 / k), mode=PROBS))
    return params


def check_params_fit(program, params_set):
    """Raise :class:`SketchError` unless each hole's distribution is the one
    :func:`holes_to_distributions` gives it: a Gaussian for a REAL hole and
    a categorical over the hole's categories for a COND or OP hole."""
    def family(params):
        k = getattr(params, "k", None)
        return f"a {k}-way {params.family}" if k else f"a {params.family}"

    for hole, params, wanted in zip(program.holes, params_set,
                                    holes_to_distributions(program)):
        if family(params) != family(wanted):
            raise SketchError(f"hole {hole.id!r} ({hole.kind}) needs "
                              f"{family(wanted)}, got {family(params)}")


@dataclass
class SketchProblem:
    """A sketch plus the specification it must match."""

    program: Program
    spec: Specification

    def __post_init__(self):
        self.fitness = SpecFitness(self.program, self.spec)

    def params(self, categorical_mode=LOGITS):
        return holes_to_distributions(self.program, categorical_mode)

    def hole_ids(self):
        return self.program.hole_ids()
