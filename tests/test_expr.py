import math
import random

import numpy as np
import pytest

from aer.errors import ExprError
from aer.expr import Bin, Call, Expr, Neg, Num, Var, parse


def test_example_sources():
    f1 = parse("cos(pi*x/4)*cos(pi*y/4)")
    assert f1(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    f2 = parse("y-2*cos(4*pi*x)")
    assert f2(0.0, 0.0) == pytest.approx(-2.0, abs=1e-15)


def test_power_right_associative():
    assert parse("2^3^2")(0, 0) == 512.0


def test_unary_minus_binds_below_power():
    assert parse("-x^2")(2.0, 0.0) == -4.0
    assert parse("(-x)^2")(2.0, 0.0) == 4.0


def test_whitespace_insensitive():
    a = parse(" 1 +  2*x ^ 2 ")(3.0, 0.0)
    b = parse("1+2*x^2")(3.0, 0.0)
    assert a == b == 19.0


def test_parse_error_offsets():
    with pytest.raises(ExprError) as ei:
        parse("cos(")
    assert ei.value.offset == 4
    with pytest.raises(ExprError) as ei:
        parse("sin(x) + bogus")
    assert ei.value.offset == 9
    with pytest.raises(ExprError) as ei:
        parse("(1+2")
    assert ei.value.offset == 4
    with pytest.raises(ExprError) as ei:
        parse("1+2)")
    assert ei.value.offset == 3
    with pytest.raises(ExprError):
        parse("   ")


def test_domain_error_flagged():
    e = parse("sqrt(x)")
    assert math.isnan(e(-1.0, 0.0))


def test_vectorized_eval_shapes():
    e = parse("x*y + 1")
    x = np.linspace(0, 1, 5)
    out = e(x, 2.0)
    assert out.shape == (5,)
    assert np.allclose(out, 2 * x + 1)
    const = parse("3")
    assert const(x, x).shape == (5,)
    assert np.all(const(x, x) == 3.0)


# random well-formed trees for the round-trip and reference-evaluator checks

_FUNCS = ["sin", "cos", "tan", "tanh", "exp", "ln", "sqrt", "abs"]


def _random_tree(rng, depth):
    if depth == 0:
        return rng.choice([Num(round(rng.uniform(0.1, 5.0), 3)), Var("x"), Var("y")])
    kind = rng.random()
    if kind < 0.15:
        return Neg(_random_tree(rng, depth - 1))
    if kind < 0.35:
        return Call(rng.choice(["sin", "cos", "tanh"]), _random_tree(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    if op == "^":
        right = Num(round(rng.uniform(0.5, 2.5), 2))  # keep powers tame
    return Bin(op, left, right)


def _reference_eval(node, x, y):
    """Plain recursive evaluation with the math module (scalar only)."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -_reference_eval(node.arg, x, y)
    if isinstance(node, Bin):
        lv = _reference_eval(node.left, x, y)
        rv = _reference_eval(node.right, x, y)
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        if node.op == "/":
            return lv / rv if rv != 0 else math.inf
        return math.pow(lv, rv)
    fn = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "tanh": math.tanh,
          "exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs}[node.name]
    return fn(_reference_eval(node.arg, x, y))


def test_pretty_parse_round_trip():
    rng = random.Random(42)
    for _ in range(300):
        tree = _random_tree(rng, rng.randint(1, 4))
        printed = Expr(tree, "?").pretty()
        reparsed = parse(printed)
        assert reparsed.root == tree, printed
        # idempotence of the printed form
        assert parse(reparsed.pretty()).root == reparsed.root


def test_eval_matches_reference_evaluator():
    rng = random.Random(7)
    checked = 0
    for _ in range(1000):
        tree = _random_tree(rng, rng.randint(1, 3))
        expr = Expr(tree, Expr(tree, "?").pretty())
        x, y = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        try:
            ref = _reference_eval(tree, x, y)
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        got = expr(x, y)
        if math.isfinite(ref):
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
            checked += 1
    assert checked > 600  # the generator rarely produces domain errors
