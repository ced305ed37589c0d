"""Factorable-function frontend: text grammar, shared-subexpression DAG, and
evaluators over points, boxes, and branched domains.

Grammar (whitespace insensitive)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' INT)?
    atom    := NUMBER | 'pi' | 'e' | VAR | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := 'exp'|'log'|'sin'|'cos'|'tan'|'cot'|'sqrt'|'inv'|'sqr'
    VAR     := 'x' INT   (1-based: x1 is axis 0)

NUMBER is a decimal literal with an optional exponent; `pi` and `e` fold to
their double-precision values, which fixes the semantics of every evaluator.
Exponents must be positive integer literals; write exp(q*log(x)) for anything
else.  Constant subexpressions fold at parse time, so a binary node always has
at most one constant operand and unary atoms never see constant children.

Nodes are interned by structure: syntactically repeated subexpressions are
represented once and evaluated once.

Every op is one row of the table `_OPS`, holding its float, numpy, interval
and model rule and its text form, and one walker, `_walk`, runs the DAG in
topological order for every consumer: the four evaluators, the renderer,
pruning and `self_compose`.  A new op is one table row.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .interval import PI_HALF, DomainViolation, Interval
from .model import Domain, SuperpositionModel, init_constant, init_variable, _affine
from .univariate import Atom, _by_squaring, compose, cot_model, pow_model, recip_model, sqrt_model
from .bivariate import add_models, div_models, mul_models, scalar_affine, sub_models

__all__ = [
    "Expr",
    "ParseError",
    "UnknownIdentifier",
    "ArityError",
    "ShapeMismatch",
    "parse",
    "parse_vector",
    "to_text",
    "eval_point",
    "eval_points",
    "eval_interval",
    "eval_ism",
    "self_compose",
]


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(ParseError):
    pass


class ArityError(ValueError):
    """Variable index outside the declared arity."""


class ShapeMismatch(ValueError):
    """Composition of expressions whose input/output shapes disagree."""


# node tuples are (kind, param, *children):
#   ('var', i)  ('const', v)  ('un', name, child)  ('pow', k, child)
#   ('bin', op, left, right)


def _nonzero(v, what: str):
    """v itself, once no element of it is zero (a float or an array)."""
    if np.any(v == 0.0):
        raise DomainViolation(what)
    return v


def _positive(v, what: str):
    """v itself, once every element of it is positive (a float or an array)."""
    if not np.all(v > 0.0):
        raise DomainViolation(what)
    return v


def _fold(both: Callable, const_left: Callable, const_right: Callable) -> Callable:
    """Binary model rule; an operand that is a float constant folds exactly
    through the given rule instead of the product or addition rule."""

    def rule(a, b):
        if isinstance(a, float):
            return const_left(a, b)
        if isinstance(b, float):
            return const_right(a, b)
        return both(a, b)

    return rule


_PREC_ATOM, _PREC_POW, _PREC_NEG, _PREC_TERM, _PREC_EXPR = 5, 4, 3, 2, 1


def _text(fmt: str, prec: int, *wants: int) -> Callable:
    """Text rule: fmt filled with the operand texts, each bracketed when it
    binds more loosely than wanted there; a power's exponent comes last.
    Texts travel as (text, precedence) pairs."""

    def rule(*args):
        parts = [f"({t})" if want > p else t for (t, p), want in zip(args, wants)]
        return fmt.format(*parts, *args[len(wants):]), prec

    return rule


class _Op(NamedTuple):
    """One op's rules: values in working precision (fl) and over numpy arrays
    (np), the natural interval extension (iv), the superposition model, and
    the text form.  Binary model rules also take float constants."""

    fl: Callable
    np: Callable
    iv: Callable
    model: Callable
    text: Callable


def _func(name: str, fl: Callable, np_: Callable, iv: Callable, model: Callable) -> _Op:
    return _Op(fl, np_, iv, model, _text(name + "({})", _PREC_ATOM, _PREC_EXPR))


# Model rules reach compose, mul_models and the rest through lambdas, so they
# are looked up as module attributes at call time and a patched attribute
# (bench/spans.py traces them that way) sees every call.
_OPS: dict[str, _Op] = {
    "neg": _Op(operator.neg, np.negative, operator.neg, lambda m: compose(Atom.NEG, m),
               _text("-{}", _PREC_NEG, _PREC_NEG)),
    "sqr": _func("sqr", lambda v: v * v, np.square, Interval.sqr, lambda m: compose(Atom.SQR, m)),
    "inv": _func("inv", lambda v: 1.0 / _nonzero(v, "reciprocal of zero"),
                 lambda v: 1.0 / _nonzero(v, "reciprocal of zero"),
                 Interval.inv, lambda m: compose(Atom.INV, m)),
    "exp": _func("exp", math.exp, np.exp, Interval.exp, lambda m: compose(Atom.EXP, m)),
    "log": _func("log", lambda v: math.log(_positive(v, "log of a non-positive value")),
                 lambda v: np.log(_positive(v, "log of a non-positive value")),
                 Interval.log, lambda m: compose(Atom.LOG, m)),
    "sin": _func("sin", math.sin, np.sin, Interval.sin, lambda m: compose(Atom.SIN, m)),
    "cos": _func("cos", math.cos, np.cos, Interval.cos, lambda m: compose(Atom.COS, m)),
    "tan": _func("tan", math.tan, np.tan, Interval.tan, lambda m: compose(Atom.TAN, m)),
    "cot": _func("cot", lambda v: 1.0 / _nonzero(math.tan(v), "cot at a pole"),
                 lambda v: 1.0 / _nonzero(np.tan(v), "cot at a pole"),
                 lambda x: (PI_HALF + (-x)).tan(), lambda m: cot_model(m)),
    # sqrt as exp(0.5 * log x) on intervals, mirroring the model-level construction
    "sqrt": _func("sqrt", lambda v: math.sqrt(_positive(v, "sqrt of a non-positive value")),
                  lambda v: np.sqrt(_positive(v, "sqrt of a non-positive value")),
                  lambda x: (x.log() * 0.5).exp(), lambda m: sqrt_model(m)),
    "pow": _Op(operator.pow, operator.pow,
               lambda x, k: _by_squaring(x, k, Interval.sqr, operator.mul),
               lambda m, k: pow_model(m, k), _text("{}^{}", _PREC_POW, _PREC_ATOM)),
    "add": _Op(operator.add, operator.add, operator.add,
               _fold(lambda a, b: add_models(a, b), lambda c, m: scalar_affine(m, 1.0, c),
                     lambda m, c: scalar_affine(m, 1.0, c)),
               _text("{}+{}", _PREC_EXPR, _PREC_EXPR, _PREC_TERM)),
    "sub": _Op(operator.sub, operator.sub, operator.sub,
               _fold(lambda a, b: sub_models(a, b), lambda c, m: scalar_affine(m, -1.0, c),
                     lambda m, c: scalar_affine(m, 1.0, -c)),
               _text("{}-{}", _PREC_EXPR, _PREC_EXPR, _PREC_TERM)),
    "mul": _Op(operator.mul, operator.mul, operator.mul,
               _fold(lambda a, b: mul_models(a, b), lambda c, m: scalar_affine(m, c),
                     lambda m, c: scalar_affine(m, c)),
               _text("{}*{}", _PREC_TERM, _PREC_TERM, _PREC_NEG)),
    "div": _Op(lambda a, b: a / _nonzero(b, "division by zero"),
               lambda a, b: a / _nonzero(b, "division by zero"),
               lambda a, b: a * b.inv(),
               _fold(lambda a, b: div_models(a, b), lambda c, m: scalar_affine(recip_model(m), c),
                     lambda m, c: _affine(m, Interval.point(
                         _nonzero(c, "division by the constant zero")).inv())),
               _text("{}/{}", _PREC_TERM, _PREC_TERM, _PREC_NEG)),
}

# the ops the grammar spells as operators; every other row is a FUNC
_FUNCS = _OPS.keys() - {"neg", "pow", "add", "sub", "mul", "div"}


def _apply(column: str, kind: str, param, *args):
    """Apply one column of a node's row to its operand values; a power node
    passes its exponent last."""
    if kind == "pow":
        return getattr(_OPS["pow"], column)(*args, param)
    return getattr(_OPS[param], column)(*args)


class _Builder:
    """Interning node store with eager constant folding, optionally seeded
    with the nodes of an existing DAG."""

    def __init__(self, nodes: Sequence[tuple] = ()) -> None:
        self.nodes: list[tuple] = list(nodes)
        self._index: dict[tuple, int] = {node: i for i, node in enumerate(self.nodes)}

    def _add(self, node: tuple) -> int:
        got = self._index.get(node)
        if got is None:
            got = len(self.nodes)
            self.nodes.append(node)
            self._index[node] = got
        return got

    def var(self, i: int) -> int:
        return self._add(("var", i))

    def const(self, v: float) -> int:
        v = float(v)
        if not math.isfinite(v):
            raise OverflowError(f"constant folded to a non-finite value: {v}")
        return self._add(("const", v))

    def op(self, kind: str, param, *kids: int) -> int:
        """Node applying op param ('un', 'bin') or power param ('pow') to the
        children, folded to a constant when every child is one."""
        if kind == "pow" and param == 1:
            return kids[0]
        for c in kids:
            if self.nodes[c][0] != "const":
                return self._add((kind, param) + kids)
        return self.const(_apply("fl", kind, param, *[self.nodes[c][1] for c in kids]))


@dataclass(frozen=True)
class Expr:
    """Topologically ordered DAG with one or more output nodes."""

    nodes: tuple[tuple, ...]
    outputs: tuple[int, ...]
    arity: int

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)


def _last_uses(e: Expr) -> list[int]:
    """Per node, the id of its last consumer: len(e.nodes) for an output and
    -1 for a node that no output needs."""
    nodes = e.nodes
    last = [-1] * len(nodes)
    for out in e.outputs:
        last[out] = len(nodes)
    for nid in range(len(nodes) - 1, -1, -1):
        if last[nid] >= 0:
            for child in nodes[nid][2:]:
                if last[child] < 0:
                    last[child] = nid
    return last


def _walk(
    e: Expr, var: Callable, const: Callable, op: Callable, finite: Callable | None = None
) -> tuple:
    """Evaluate the DAG bottom-up and return the values of its outputs.

    Visits, in topological order, only the nodes some output needs: var(i)
    and const(v) give the leaf values, op(kind, param, *operand_values) all
    others.  When finite is given, a value for which finite(value) fails
    raises OverflowError.  A value is dropped once its last consumer has run,
    and a domain error names its node.
    """
    last = _last_uses(e)
    vals: list = [None] * len(e.nodes)
    for nid, node in enumerate(e.nodes):
        if last[nid] < 0:
            continue
        kind = node[0]
        try:
            if kind == "var":
                v = var(node[1])
            elif kind == "const":
                v = const(node[1])
            elif kind == "bin":
                v = op(kind, node[1], vals[node[2]], vals[node[3]])
            else:
                v = op(kind, node[1], vals[node[2]])
        except DomainViolation as err:
            raise DomainViolation(f"node {nid} ({kind}): {err}") from err
        if finite is not None and not finite(v):
            raise OverflowError("intermediate value overflowed")
        vals[nid] = v
        for child in node[2:]:
            if last[child] == nid:
                vals[child] = None
    return tuple(vals[o] for o in e.outputs)


def _prune(nodes: Sequence[tuple], outputs: Sequence[int], arity: int) -> Expr:
    """Drop nodes unreachable from the outputs and renumber."""
    kept: list[tuple] = []

    def keep(kind: str, param, *kids: int) -> int:
        kept.append((kind, param, *kids))
        return len(kept) - 1

    outs = _walk(Expr(tuple(nodes), tuple(outputs), arity),
                 partial(keep, "var"), partial(keep, "const"), keep)
    return Expr(tuple(kept), outs, arity)


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, arity: int, builder: _Builder):
        self.text = text
        self.arity = arity
        self.builder = builder
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            where = tok[2] if tok else len(self.text)
            got = tok[1] if tok else "end of input"
            raise ParseError(f"expected {op!r}, got {got!r}", where)
        self.pos += 1

    def parse(self) -> int:
        nid = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return nid

    def expr(self) -> int:
        nid = self.term()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "+-":
            self.pos += 1
            rhs = self.term()
            nid = self.builder.op("bin", "add" if tok[1] == "+" else "sub", nid, rhs)
        return nid

    def term(self) -> int:
        nid = self.factor()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "*/":
            self.pos += 1
            rhs = self.factor()
            nid = self.builder.op("bin", "mul" if tok[1] == "*" else "div", nid, rhs)
        return nid

    def factor(self) -> int:
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            return self.builder.op("un", "neg", self.factor())
        return self.power()

    def power(self) -> int:
        nid = self.atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            etok = self._peek()
            if etok is None or etok[0] != "num" or not etok[1].isdigit() or int(etok[1]) < 1:
                where = etok[2] if etok else len(self.text)
                raise ParseError("exponent must be a positive integer literal", where)
            self.pos += 1
            nid = self.builder.op("pow", int(etok[1]), nid)
        return nid

    def atom(self) -> int:
        kind, value, where = self._take()
        if kind == "num":
            return self.builder.const(float(value))
        if kind == "op" and value == "(":
            nid = self.expr()
            self._expect_op(")")
            return nid
        if kind == "name":
            if value == "pi":
                return self.builder.const(math.pi)
            if value == "e":
                return self.builder.const(math.e)
            if value in _FUNCS:
                self._expect_op("(")
                inner = self.expr()
                self._expect_op(")")
                return self.builder.op("un", value, inner)
            if value[0] == "x" and value[1:].isdigit():
                idx = int(value[1:])
                if not 1 <= idx <= self.arity:
                    raise ArityError(
                        f"variable {value} outside the declared arity {self.arity}"
                    )
                return self.builder.var(idx - 1)
            raise UnknownIdentifier(f"unknown identifier {value!r}", where)
        raise ParseError(f"unexpected token {value!r}", where)


def parse(text: str, arity: int) -> Expr:
    """Parse one expression in n variables into a deduplicated DAG."""
    return parse_vector([text], arity)


def parse_vector(texts: Sequence[str], arity: int) -> Expr:
    """Parse several expressions into one DAG with sharing across outputs."""
    if arity < 0:
        raise ArityError(f"arity must be non-negative, got {arity}")
    builder = _Builder()
    outputs = [_Parser(t, arity, builder).parse() for t in texts]
    return _prune(builder.nodes, outputs, arity)


def to_text(e: Expr, output: int = 0) -> str:
    """Render one output back to grammar text; parsing the result rebuilds an
    identical DAG."""
    one = replace(e, outputs=(e.outputs[output],))
    return _walk(
        one,
        lambda i: (f"x{i + 1}", _PREC_ATOM),
        # a bare negative literal reads as unary minus; guard tight contexts
        lambda v: (repr(v), _PREC_NEG if v < 0 else _PREC_ATOM),
        partial(_apply, "text"),
    )[0][0]


def eval_point(e: Expr, x: Sequence[float]) -> tuple[float, ...]:
    """Evaluate all outputs at a point in working precision."""
    if len(x) != e.arity:
        raise ArityError(f"point has {len(x)} coordinates, expression takes {e.arity}")
    return _walk(e, lambda i: float(x[i]), float, partial(_apply, "fl"), math.isfinite)


def eval_points(e: Expr, xs: np.ndarray) -> np.ndarray:
    """Vectorized eval_point over an (m, arity) array; returns (m, outputs).

    Raises the same domain errors as eval_point when any row violates them.
    Intermediate arrays are freed as soon as their last consumer has run.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != e.arity:
        raise ArityError(f"expected an (m, {e.arity}) array, got {xs.shape}")
    m = xs.shape[0]
    outs = _walk(e, lambda i: xs[:, i], lambda v: np.full(m, v), partial(_apply, "np"),
                 lambda v: np.isfinite(v).all())
    return np.column_stack(outs)


def eval_interval(e: Expr, box: Sequence[Interval]) -> tuple[Interval, ...]:
    """Natural interval extension over the box, memoized over the DAG."""
    if len(box) != e.arity:
        raise ArityError(f"box has {len(box)} axes, expression takes {e.arity}")
    return _walk(e, lambda i: box[i], Interval.point, partial(_apply, "iv"))


def eval_ism(e: Expr, domain: Domain, memoize: bool = True) -> tuple[SuperpositionModel, ...]:
    """Propagate superposition models through the DAG.

    Leaves become trivial variable/constant models; unary nodes go through the
    composition rule, binaries through the addition and product rules, and
    binaries with a constant operand fold exactly without remainder.  With
    memoize=False shared nodes are recomputed per use (test hook; the result
    is identical because every step is deterministic).
    """
    if domain.dim != e.arity:
        raise ArityError(f"domain has {domain.dim} axes, expression takes {e.arity}")
    model = partial(_apply, "model")
    # constants stay floats, so the binary rules can fold them; only a
    # constant output becomes a model
    if memoize:
        outs = _walk(e, lambda i: init_variable(domain, i), float, model)
    else:  # every value is a thunk, so a shared node is rebuilt on each use
        outs = [force() for force in _walk(
            e,
            lambda i: lambda: init_variable(domain, i),
            lambda v: lambda: v,
            lambda kind, param, *kids: lambda: model(kind, param, *[k() for k in kids]),
        )]
    return tuple(init_constant(domain, m) if isinstance(m, float) else m for m in outs)


def self_compose(e: Expr, k: int) -> Expr:
    """Iterate a square map: outputs of the previous stage feed the variable
    leaves of the next.  Sharing is preserved, so the node count grows
    linearly in k."""
    if k < 1:
        raise ValueError(f"depth must be positive, got {k}")
    if e.n_outputs != e.arity:
        raise ShapeMismatch(f"need outputs == arity, got {e.n_outputs} != {e.arity}")
    current = e
    for _ in range(k - 1):
        builder = _Builder(current.nodes)
        outs = _walk(e, current.outputs.__getitem__, builder.const, builder.op)
        current = _prune(builder.nodes, outs, e.arity)
    return current
