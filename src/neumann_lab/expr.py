"""Tiny arithmetic expression language for problem data.

Forcing terms and boundary data can be given as text (in problem files
and on the command line) over the node coordinates.  The language is a
conventional infix grammar, parsed by recursive descent; ``GRAMMAR_HELP``
states it, with its precedence, and is the command line's help text.
Evaluation never lets NaN or Inf escape: leaving the real domain raises
EvalDomainError.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifier

IDENTIFIERS = ("x", "y", "r", "theta", "s")
FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "sqrt": np.sqrt,
}
CONSTANTS = {"pi": math.pi, "e": math.e}

GRAMMAR_HELP = """\
expression grammar (precedence high to low: '^', unary '-', '*' '/', '+' '-'):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := base ('^' factor)?          # '^' is right-associative
    base    := NUMBER | IDENT | CONST | '(' expr ')'
             | '-' factor | FUNC '(' expr ')'

    IDENT   one of x, y, r, theta, s   (1D meshes provide only x)
    FUNC    one of sin, cos, exp, log, abs, sqrt
    CONST   pi, e

No implicit multiplication: write 2*x, not 2x.
"""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            # nothing but trailing whitespace is fine
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_MAX_DEPTH = 200


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", node, self.factor())
        return node

    def base(self):
        # every recursive construct passes through here once per nesting
        # level; bound it so hostile input cannot exhaust the Python stack
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", self.peek()[2])
        try:
            kind, val, off = self.advance()
            if kind == "num":
                return Num(float(val))
            if kind == "op" and val == "-":
                return Neg(self.factor())
            if kind == "op" and val == "(":
                node = self.expr()
                self.expect_op(")")
                return node
            if kind == "name":
                if val in FUNCTIONS:
                    self.expect_op("(")
                    arg = self.expr()
                    self.expect_op(")")
                    return Call(val, arg)
                if val in CONSTANTS:
                    return Const(val)
                if val in IDENTIFIERS:
                    return Var(val)
                raise ExprSyntaxError(f"unknown name {val!r}", off)
            raise ExprSyntaxError(
                f"unexpected token {val!r}" if val else "unexpected end of input", off)
        finally:
            self.depth -= 1


def parse(text):
    """Parse expression text into an AST.  Raises ExprSyntaxError."""
    if not isinstance(text, str) or text.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def _eval_node(node, point):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Var):
        try:
            return point[node.name]
        except KeyError:
            raise UnknownIdentifier(
                f"{node.name!r} is not available at this evaluation point"
            ) from None
    if isinstance(node, Neg):
        return -_eval_node(node.operand, point)
    if isinstance(node, Call):
        return FUNCTIONS[node.func](_eval_node(node.arg, point))
    if isinstance(node, BinOp):
        a = _eval_node(node.left, point)
        b = _eval_node(node.right, point)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return np.divide(a, b)
        return np.power(a, b)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node, point):
    """Evaluate an AST at a point.

    ``point`` maps identifier names to scalars or same-shaped arrays.
    Results must be finite; log/sqrt leaving the real domain, division
    by zero, and overflow raise EvalDomainError instead of returning
    NaN or Inf.
    """
    with np.errstate(all="ignore"):
        out = _eval_node(node, point)
    arr = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise EvalDomainError("expression left the real domain (NaN/Inf result)")
    if arr.ndim == 0:
        return float(arr)
    return arr
