"""Parser/evaluator tests: precedence, round-trip stability, typed errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_lab.errors import EvalDomainError, ExprSyntaxError, UnknownIdentifier
from neumann_lab.expr import BinOp, Call, Const, Neg, Num, Var, evaluate, parse


def ev(text, **point):
    return evaluate(parse(text), point)


def test_constant_literal():
    assert ev("1") == 1.0


def test_quadratic_at_boundary():
    assert ev("r^2/4 - 1/8", r=1.0) == pytest.approx(0.125, abs=1e-15)


def test_trig_identity_at_quarter_pi():
    assert ev("sin(theta)*cos(theta) - sin(theta)^2", theta=math.pi / 4) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("text,value", [
    ("2+3*4", 14.0),
    ("2^3^2", 512.0),
    ("-2^2", -4.0),
    ("2*3^2", 18.0),
    ("8/4/2", 1.0),
    ("1 - 2 - 3", -4.0),
    ("2^-1", 0.5),
    ("-(1+2)", -3.0),
    ("pi/pi", 1.0),
])
def test_precedence(text, value):
    assert ev(text) == value


def test_constants():
    assert ev("pi") == math.pi
    assert ev("e") == math.e


def test_functions():
    assert ev("sqrt(4)") == 2.0
    assert ev("abs(0-3)") == 3.0
    assert ev("log(e)") == pytest.approx(1.0, abs=1e-15)
    assert ev("exp(0)") == 1.0


def test_vectorized_evaluation():
    x = np.linspace(0.0, 1.0, 11)
    out = ev("x^2 + 1", x=x)
    np.testing.assert_allclose(out, x**2 + 1, rtol=1e-15)


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2x")
    assert exc.value.offset == 1


def test_unknown_name_is_syntax_error():
    with pytest.raises(ExprSyntaxError):
        parse("foo + 1")


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        parse("(1 + 2")


def test_empty_input():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_missing_identifier_at_eval():
    with pytest.raises(UnknownIdentifier):
        ev("theta + 1", x=0.5)


@pytest.mark.parametrize("text,point", [
    ("1/x", {"x": 0.0}),
    ("log(x)", {"x": 0.0}),
    ("log(x - 2)", {"x": 1.0}),
    ("sqrt(0 - 1)", {}),
    ("x^0.5", {"x": -1.0}),
])
def test_domain_errors_never_nan(text, point):
    with pytest.raises(EvalDomainError):
        ev(text, **point)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3


def _level(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _NEG_PREC
    return 5


def to_text(node):
    """Render an AST back to parseable text (round-trip stable): the
    round-trip tests' printer."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Const, Var)):
        return node.name
    if isinstance(node, Neg):
        inner = to_text(node.operand)
        if _level(node.operand) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        left = to_text(node.left)
        right = to_text(node.right)
        if node.op == "^":
            # right-associative: parenthesize any structured left operand
            if _level(node.left) <= p:
                left = f"({left})"
            if _level(node.right) < _NEG_PREC:
                right = f"({right})"
        else:
            if _level(node.left) < p:
                left = f"({left})"
            if _level(node.right) <= p:
                right = f"({right})"
        return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


ROUND_TRIP_CASES = [
    "1 + 2*x - 3/y",
    "-x^2",
    "(-x)^2",
    "2^3^2",
    "sin(x)*cos(y) - sin(theta)^2",
    "sqrt(abs(x - y))/(1 + r)",
    "x - (y - s)",
    "x/(y*r)",
    "-(x + y)^2",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_round_trip_fixed(text):
    ast = parse(text)
    assert parse(to_text(ast)) == ast


def _ast_strategy():
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
        st.sampled_from(["x", "y", "r", "theta", "s"]).map(Var),
        st.sampled_from(["pi", "e"]).map(Const),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), children)
            .map(lambda t: Call(*t)),
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children)
            .map(lambda t: BinOp(*t)),
        )

    return st.recursive(leaf, extend, max_leaves=25)


@given(_ast_strategy())
@settings(max_examples=200, deadline=None)
def test_round_trip_random_ast(ast):
    assert parse(to_text(ast)) == ast


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_fuzz_parse_never_panics(text):
    try:
        parse(text)
    except ExprSyntaxError:
        pass


def test_deep_nesting_is_syntax_error_not_crash():
    assert evaluate(parse("(" * 50 + "1" + ")" * 50), {}) == 1.0
    with pytest.raises(ExprSyntaxError):
        parse("(" * 500 + "1" + ")" * 500)
    with pytest.raises(ExprSyntaxError):
        parse("-" * 500 + "x")
