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
A program is compiled once into an evaluation plan (see ``eval_batch``)
that reads a population as one ``(holes, lam)`` matrix, a row per hole in
inventory order; hole ids serve only text and dict assignments.  A
:class:`SketchProblem` is what training reads: each hole's search
distribution (see :func:`holes_to_distributions`) and a
:class:`SpecFitness` that scores a whole population in one call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import F32_MAX, CategoricalParams, GaussianParams, _equal

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

    def expect(self, *texts):
        """Consume the tokens ``texts``, one after another."""
        for text in texts:
            tok = self.peek()
            if tok.text != text:
                self.error(f"expected {text!r}, found {tok.text!r}")
            self.advance()

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
            arg = self.expect_ident()
            if arg.text in self.args:
                self.error(f"duplicate argument name {arg.text!r}", arg)
            self.expect(":", "f32")
            self.args.append(arg.text)
            if self.peek().text != ",":
                break
            self.advance()
        self.expect(")", "->", "f32", "{")
        branches = []
        while self.peek().text == "if":
            self.advance()
            cond = self.binary()
            self.expect("{", "return")
            expr = self.binary()
            self.expect(";", "}")
            branches.append((cond, expr))
        self.expect("return")
        else_expr = self.binary()
        self.expect(";", "}")
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


def _compile(node, rows, bools=False):
    """Compile an expression into ``fn(inputs, reals, offsets)``, the
    node's value as a C-contiguous ``(lam, n)`` f32 array, or as an f32
    scalar for a subtree of literals only, so that no operator broadcasts
    one operand over another.  The arguments are the leaves of one
    evaluation, each tiled once to the full shape: ``inputs[i]`` is input
    column ``i`` and ``reals[i]`` the ``i``-th REAL hole's member values,
    both ``(lam, n)``, and ``offsets[i]`` the rows the ``i``-th operator
    hole picks from its candidates; ``rows`` maps each hole id to its
    ``i``.  With ``bools``, a comparison at the root (see
    :func:`_compares`) gives its bools instead of 0.0 / 1.0."""
    if isinstance(node, Num):
        value = np.float32(node.value)
        return lambda inputs, reals, offsets: value
    if isinstance(node, Var):
        col = node.index
        return lambda inputs, reals, offsets: inputs[col]
    if isinstance(node, Hole):  # a REAL hole: one constant per member
        row = rows[node.id]
        return lambda inputs, reals, offsets: reals[row]
    if isinstance(node, Neg):
        operand = _compile(node.operand, rows)
        return lambda inputs, reals, offsets: np.negative(
            operand(inputs, reals, offsets))
    left, right = _compile(node.left, rows), _compile(node.right, rows)
    if isinstance(node.op, Hole):
        return _operator_hole(node.op, rows[node.op.id], left, right, bools)
    ufunc = _UFUNCS[node.op]
    if node.op in COND_OPS and not bools:
        # comparison results feed back into arithmetic as 0.0 / 1.0
        return lambda inputs, reals, offsets: ufunc(
            left(inputs, reals, offsets),
            right(inputs, reals, offsets)).astype(np.float32)
    return lambda inputs, reals, offsets: ufunc(
        left(inputs, reals, offsets), right(inputs, reals, offsets))


def _operator_hole(hole, row, left, right, bools):
    """A COND/OP hole whose pick rows are ``offsets[row]``: candidate
    ``k`` writes its result into rows ``k * lam`` to ``(k + 1) * lam - 1``
    of one ``(K * lam, n)`` buffer, and one ``take`` picks each member's
    row.  A COND hole's buffer is bool, which its comparisons fill faster
    than an f32 one, and only the picked rows become 0.0 / 1.0, unless
    ``bools`` keeps them as they are."""
    ufuncs = tuple(_UFUNCS[sym] for sym in hole.categories)
    k = len(ufuncs)
    cond = hole.kind == COND
    as_f32 = cond and not bools

    def pick(inputs, reals, offsets):
        a, b = left(inputs, reals, offsets), right(inputs, reals, offsets)
        _, lam, n = inputs.shape
        buf = np.empty((k, lam, n), dtype=bool if cond else np.float32)
        for ufunc, out in zip(ufuncs, buf):
            ufunc(a, b, out)
        picked = buf.reshape(k * lam, n).take(offsets[row], axis=0)
        return picked.astype(np.float32) if as_f32 else picked
    return pick


def _compares(node):
    """Whether ``node`` is a comparison, by a fixed operator or a COND
    hole, whose value is already a bool for each element."""
    op = getattr(node, "op", None)
    return (op in COND_OPS if isinstance(op, str)
            else isinstance(op, Hole) and op.kind == COND)


def _compile_program(program):
    """The program as one function of ``(draws, inputs)``.

    Each evaluation first makes the leaves of :func:`_compile`, all of a
    kind at once: every input column and every REAL row tiled to a full
    ``(lam, n)`` array, and the pick rows of every operator hole,
    ``category * lam + member``.  The tiles of inputs over ``bytes``, such
    as a :class:`Specification`'s, and ``arange(lam)`` are kept for the
    next evaluation with the same inputs array and ``lam``; other inputs
    may change in place between calls, so they are tiled anew each time.
    Guards are tested in order, so the first true one wins: the branches
    are folded from the last to the first over the final expression.  A
    guard is true where its value is not 0.0, which makes NaN true; a
    comparison guard gives its bools to the fold as they are.
    """
    real_rows, cat_rows, rows = [], [], {}
    for row, hole in enumerate(program.holes):
        kind_rows = real_rows if hole.kind == REAL else cat_rows
        rows[hole.id] = len(kind_rows)
        kind_rows.append(row)
    real_rows = np.array(real_rows, dtype=np.intp)
    cat_rows = np.array(cat_rows, dtype=np.intp)

    def guard(node):
        if _compares(node):
            return _compile(node, rows, bools=True)
        value = _compile(node, rows)
        return lambda inputs, reals, offsets: \
            value(inputs, reals, offsets) != 0.0

    branches = [(guard(cond), _compile(expr, rows))
                for cond, expr in reversed(program.branches)]
    final = _compile(program.else_expr, rows)

    # the last evaluation's inputs and lam, with the inputs' tiles and
    # arange(lam); the tiles are reused only for the same inputs over
    # bytes, which nothing can write
    last = (None, 0, None, None)

    def run(hv, xs):
        nonlocal last
        lam, n = hv.shape[1], xs.shape[0]
        seen = last
        if seen[0] is not xs or seen[1] != lam or type(xs.base) is not bytes:
            tiles = xs.T[:, None, :].repeat(lam, axis=1)
            tiles.flags.writeable = False
            seen = last = (xs, lam, tiles, np.arange(lam))
        _, _, inputs, members = seen
        reals = hv[real_rows, :, None].astype(np.float32).repeat(n, axis=2)
        offsets = hv[cat_rows].astype(np.intp) * lam + members
        out = final(inputs, reals, offsets)
        for cond, value in branches:
            out = np.where(cond(inputs, reals, offsets),
                           value(inputs, reals, offsets), out)
        return out
    return run


def eval_batch(program, draws, inputs):
    """Evaluate a population of assignments over all specification inputs.

    ``draws`` is a ``(holes, lam)`` array, or anything that
    ``np.asarray(draws, dtype=np.float64)`` makes one of: row ``h`` holds
    the values of ``program.holes[h]`` for the ``lam`` members, category
    indices for COND/OP holes and reals for REAL holes.  ``inputs`` is an
    ``(n, arity)`` float32 array.  Returns a fresh, writable, C-contiguous
    ``(lam, n)`` float32 array, which the caller owns.
    The program is compiled on its first evaluation and the plan is kept
    on it.  An evaluation tiles every input column and REAL row to a full
    ``(lam, n)`` array once, so each operator runs on whole arrays, and
    each operator hole computes all its candidates into one buffer and
    picks every member's with one ``take``.  Every IEEE exception is
    silent, so evaluation is total: overflow, division by zero, invalid
    operations, and REAL values or inputs beyond the f32 range, which
    become ±inf.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or len(draws) != len(program.holes):
        raise ValueError(f"draws {draws.shape} for {len(program.holes)} holes")
    with np.errstate(all="ignore"):
        inputs = np.asarray(inputs, dtype=np.float32)
        out = program._plan(draws, inputs)
    shape = (draws.shape[1], inputs.shape[0])
    # a literal, or a leaf of the plan (an input's tile, a REAL hole's
    # row), is not the caller's to own: fill a fresh array with it
    if out.shape == shape and out.base is None:
        return out
    return np.full(shape, out, dtype=np.float32)


def eval_program(program, assignment, input_vector):
    """Evaluate one assignment on one input vector, in f32 semantics.

    ``assignment`` maps hole id to a category index (COND/OP) or real
    value (REAL).  Returns a ``numpy.float32``.
    """
    draws = _one_member(program, assignment)
    inputs = np.asarray(input_vector).reshape(1, -1)
    if inputs.shape[1] != program.arity:
        raise SketchError(
            f"input arity {inputs.shape[1]} != program arity {program.arity}")
    return eval_batch(program, draws, inputs)[0, 0]


def _check_assigned(program, assignment):
    missing = [h.id for h in program.holes if h.id not in assignment]
    if missing:
        raise SketchError(f"assignment missing holes: {missing}")


def _category(hole, value):
    """``value`` as a category index of the COND/OP ``hole``: a whole
    number in ``0..K-1``, no bool, else :class:`SketchError` naming it."""
    if (isinstance(value, (bool, np.bool_))
            or value not in range(len(hole.categories))):
        raise SketchError(f"hole {hole.id!r}: category index {value!r} out "
                          f"of range 0..{len(hole.categories) - 1}")
    return int(value)


def _one_member(program, assignment):
    """One assignment, a dict keyed by hole id or the values in hole
    order, as the ``(holes, 1)`` draws of :func:`eval_batch`."""
    if isinstance(assignment, dict):
        _check_assigned(program, assignment)
        assignment = [assignment[h.id] for h in program.holes]
    if len(assignment) != len(program.holes):
        raise SketchError(f"assignment has {len(assignment)} values for "
                          f"{len(program.holes)} holes")
    values = [v if h.kind == REAL else _category(h, v)
              for h, v in zip(program.holes, assignment)]
    return np.array(values, dtype=np.float64).reshape(-1, 1)


# --- Specification and fitness ---------------------------------------------

def _immutable(array):
    """A copy of ``array`` over an immutable ``bytes`` object, which NumPy
    refuses to make writeable."""
    return np.ndarray(array.shape, array.dtype, array.tobytes())


@dataclass
class Specification:
    """Input/output pairs in 32-bit float semantics, kept as immutable
    copies: the evaluator and the fitness keep what they tile from them
    for the next evaluation."""

    inputs: np.ndarray   # (n, arity) float32
    outputs: np.ndarray  # (n,) float32

    __eq__ = _equal

    def __post_init__(self):
        self.inputs = _immutable(
            np.atleast_2d(np.asarray(self.inputs, dtype=np.float32)))
        self.outputs = _immutable(
            np.asarray(self.outputs, dtype=np.float32).reshape(-1))
        if self.inputs.shape[0] == 0:
            raise ValueError("specification must be non-empty")
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ValueError("inputs and outputs must have equal length")


class SpecFitness:
    """Fitness = negated mean squared error against a specification.

    The estimators score a population through :meth:`population`, one
    fitness per column of its ``(holes, lam)`` draws;
    :meth:`predicted_outputs` evaluates a single assignment.  Squared
    errors are accumulated in 64-bit.
    """

    def __init__(self, program, spec):
        if spec.inputs.shape[1] != program.arity:
            raise SketchError(
                f"specification arity {spec.inputs.shape[1]} != "
                f"program arity {program.arity}")
        self.program = program
        self.spec = spec
        # the specification's outputs as float64, tiled to the last shape
        # scored, and the array they came from, reused only over bytes
        self._target = (None, np.empty(0))

    def mean_squared_error(self, outputs):
        """MSE of ``outputs`` against the specification (last axis): the
        bits of ``mean(axis=-1)`` without the Python layer of
        ``ndarray.mean``."""
        source, target = self._target
        if (source is not self.spec.outputs or type(source.base) is not bytes
                or target.shape != outputs.shape):
            target = np.empty(outputs.shape)
            target[...] = self.spec.outputs
            self._target = (self.spec.outputs, target)
        err = outputs.astype(np.float64) - target
        return np.add.reduce(err * err, axis=-1) / err.shape[-1]

    def population(self, draws):
        """Fitness of ``lam`` members given their ``(holes, lam)`` draws
        (see :func:`eval_batch`)."""
        return -self.mean_squared_error(
            eval_batch(self.program, draws, self.spec.inputs))

    def predicted_outputs(self, assignment):
        """f32 outputs of the assigned program on the specification inputs."""
        return eval_batch(self.program, _one_member(self.program, assignment),
                          self.spec.inputs)[0]


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
        op_text = op.categories[_category(op, assignment[op.id])]
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
        _check_assigned(program, assignment)
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

def holes_to_distributions(program):
    """One search distribution per hole, in inventory order.

    COND holes get a 6-way categorical, OP holes a 4-way categorical and
    REAL holes a standard Gaussian; categoricals start uniform, at zero
    logits, and Gaussians at (mu=0, log_sigma=0).
    """
    return [GaussianParams(0.0, 0.0) if hole.kind == REAL
            else CategoricalParams(np.zeros(len(hole.categories)))
            for hole in program.holes]


def check_params_fit(program, hole_ids, params_set):
    """Raise :class:`SketchError` unless the snapshot of ``params_set`` under
    ``hole_ids`` fits ``program``: the sketch's hole ids, in its order, each
    with the distribution :func:`holes_to_distributions` gives it, a
    Gaussian for a REAL hole and a categorical over the hole's categories
    for a COND or OP hole."""
    if (list(hole_ids) != program.hole_ids()
            or len(params_set) != len(program.holes)):
        raise SketchError("params snapshot does not match the sketch's holes")

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
    """A sketch plus the specification it must match: the problem
    :func:`~disnes.optimizer.train` reads through ``params()``,
    ``hole_ids()`` and ``fitness``."""

    program: Program
    spec: Specification

    def __post_init__(self):
        self.fitness = SpecFitness(self.program, self.spec)

    def params(self):
        return holes_to_distributions(self.program)

    def hole_ids(self):
        return self.program.hole_ids()
