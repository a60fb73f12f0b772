"""Parser and evaluator for scalar expressions of (x, y).

Accepted grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right associative
    atom    := number | 'pi' | 'x' | 'y' | name '(' expr ')' | '(' expr ')'
    name    := sin cos tan tanh exp ln sqrt abs

'^' binds tighter than unary minus, so -x^2 means -(x^2), and 2^3^2 means
2^(3^2) = 512.  Evaluation is numpy-aware: scalars or arrays may be passed
for x and y.  Mathematically forced non-finite results (ln of a negative,
0 division, ...) are returned as nan/inf.  The solvers check the values
they use: ProblemSpec (boundary traces) and forward_solve (source and
traces on its grid) raise AssumptionViolation, and check_assumption1/2
report a non-finite value as a failed check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprError

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Node"


Node = Num | Var | Neg | Bin | Call

_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_]\w*")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        mnum = _NUMBER.match(text, pos)
        if mnum:
            tokens.append(("num", float(mnum.group(0)), pos))
            pos = mnum.end()
            continue
        mid = _IDENT.match(text, pos)
        if mid:
            tokens.append(("name", mid.group(0), pos))
            pos = mid.end()
            continue
        ch = text[pos]
        if ch in "()+-*/^":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


# binding powers; '^' outranks unary minus, which outranks '*' '/'
_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 90}
_UNARY_BP = 85


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value, what):
        kind, val, off = self.peek()
        if kind == "op" and val == value:
            return self.advance()
        raise ExprError(f"expected {what}", off)

    def parse(self) -> Node:
        node = self.expression(0)
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprError(f"trailing input {val!r}", off)
        return node

    def expression(self, rbp: int) -> Node:
        node = self.prefix()
        while True:
            kind, val, off = self.peek()
            if kind != "op" or val not in _LBP or _LBP[val] <= rbp:
                break
            self.advance()
            if val == "^":
                right = self.expression(_LBP["^"] - 1)  # right associative
            else:
                right = self.expression(_LBP[val])
            node = Bin(val, node, right)
        return node

    def prefix(self) -> Node:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "name":
            if val == "pi":
                return Num(np.pi)
            if val in ("x", "y"):
                return Var(val)
            if val in _FUNCTIONS:
                self.expect("(", f"'(' after {val}")
                k2, v2, off2 = self.peek()
                if k2 == "op" and v2 == ")":
                    raise ExprError("empty argument", off2)
                if k2 == "end":
                    raise ExprError("empty argument", off2)
                arg = self.expression(0)
                self.expect(")", "')'")
                return Call(val, arg)
            raise ExprError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "-":
            return Neg(self.expression(_UNARY_BP))
        if kind == "op" and val == "(":
            node = self.expression(0)
            self.expect(")", "')'")
            return node
        if kind == "end":
            raise ExprError("unexpected end of input", off)
        raise ExprError(f"unexpected token {val!r}", off)


def parse(text: str) -> "Expr":
    if not text or not text.strip():
        raise ExprError("empty expression", 0)
    return Expr(_Parser(text).parse(), text.strip())


def _eval_node(node: Node, x, y):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -_eval_node(node.arg, x, y)
    if isinstance(node, Bin):
        left = _eval_node(node.left, x, y)
        right = _eval_node(node.right, x, y)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return np.divide(left, right)
        return np.power(left, right)
    return _FUNCTIONS[node.name](_eval_node(node.arg, x, y))


def _pretty(node: Node, parent_bp: int = 0) -> str:
    if isinstance(node, Num):
        s = repr(node.value)
        return s
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.name}({_pretty(node.arg, 0)})"
    if isinstance(node, Neg):
        inner = _pretty(node.arg, _UNARY_BP)
        s = f"-{inner}"
        return f"({s})" if parent_bp > _UNARY_BP else s
    bp = _LBP[node.op]
    # right operand of left-assoc ops needs a bump; '^' is the mirror case
    if node.op == "^":
        s = f"{_pretty(node.left, bp)}^{_pretty(node.right, bp - 1)}"
    else:
        s = f"{_pretty(node.left, bp - 1)}{node.op}{_pretty(node.right, bp)}"
    return f"({s})" if parent_bp >= bp else s


@dataclass(frozen=True)
class Expr:
    """A parsed expression; immutable, reentrant, numpy-aware."""

    root: Node
    source: str

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            out = _eval_node(self.root, x, y)
        shape = np.broadcast_shapes(x.shape, y.shape)
        out = np.asarray(out, dtype=float)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return float(out) if shape == () else out

    def pretty(self) -> str:
        return _pretty(self.root)

    def __str__(self):
        return self.source
