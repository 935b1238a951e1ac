"""Parse scalar functions of the coordinates (t, x, y) and evaluate them to jets.

Grammar (precedence climbing, tightest first):

    power  >  unary minus  >  * /  >  + -

with parentheses, function calls ``exp(...) log(...) sin(...) cos(...)
sqrt(...) abs(...)``, and ``^`` whose exponent must be a constant
(integer or real) subexpression.  Evaluation walks the AST once with truncated
Taylor arithmetic from :mod:`curvhom.jets` on all sample points at a time,
over the coordinates the expression depends on, so derivative values are
exact to round-off.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

import numpy as np

from . import jets

COORDS = ("t", "x", "y")
FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "abs")
# Parsing and every walk of the tree recurse, so both are bounded well below
# Python's recursion limit: the levels of parentheses, calls, unary minuses and
# exponents open at once, and the depth of the tree, operator chains included.
MAX_NESTING = 50
MAX_DEPTH = 200


class ParseError(Exception):
    """Malformed expression text; `position` is a character offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"{message} (at offset {position})")


class DomainError(Exception):
    """Evaluation left the function's domain; names the offending subexpression."""

    def __init__(self, subexpr: "Expr", message: str):
        self.subexpr = subexpr
        self.message = message
        super().__init__(f"{message} in '{pretty(subexpr)}'")


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Expr"


class Call(NamedTuple):
    func: str
    arg: "Expr"


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Neg, Call, BinOp]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            raise ParseError(at, f"unexpected character {stripped[0]!r}")
        if m.lastgroup is None:  # trailing whitespace
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent that returns each node with the depth of its tree."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # parentheses, calls, unary minuses and exponents being parsed

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        tok = self.peek()
        if tok is None:
            raise ParseError(len(self.text), f"expected '{symbol}', found end of input")
        if tok[0] != "op" or tok[1] != symbol:
            raise ParseError(tok[2], f"expected '{symbol}', found {tok[1]!r}")
        self.advance()

    def nested(self, at: int, rule):
        """rule() one level deeper, at most MAX_NESTING levels down."""
        if self.open == MAX_NESTING:
            raise ParseError(at, f"expression nested more than {MAX_NESTING} levels deep")
        self.open += 1
        out = rule()
        self.open -= 1
        return out

    def node(self, e: Expr, below: int, at: int) -> tuple[Expr, int]:
        """e over children of depth `below`, at most MAX_DEPTH levels deep."""
        if below == MAX_DEPTH:
            raise ParseError(at, f"expression tree deeper than {MAX_DEPTH} levels")
        return e, below + 1

    def parse(self) -> Expr:
        node, _ = self.sum()
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok[2], f"unexpected trailing input {tok[1]!r}")
        return node

    def sum(self) -> tuple[Expr, int]:
        node, depth = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.advance()
            right, d = self.term()
            node, depth = self.node(BinOp(tok[1], node, right), max(depth, d), tok[2])
        return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.advance()
            right, d = self.unary()
            node, depth = self.node(BinOp(tok[1], node, right), max(depth, d), tok[2])
        return node, depth

    def unary(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.advance()
            arg, d = self.nested(tok[2], self.unary)
            return self.node(Neg(arg), d, tok[2])
        return self.power()

    def power(self) -> tuple[Expr, int]:
        node, depth = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.advance()
            at = self.peek()[2] if self.peek() else len(self.text)
            exponent, d = self.nested(at, self.unary)  # right associative, allows 2^-3
            if variables_of(exponent):
                raise ParseError(at, "exponent must be a constant expression")
            return self.node(BinOp("^", node, exponent), max(depth, d), tok[2])
        return node, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(len(self.text), "empty operand")
        kind, value, at = tok
        if kind == "num":
            self.advance()
            return Num(float(value)), 1
        if kind == "name":
            self.advance()
            if value in FUNCTIONS:
                self.expect_op("(")
                arg, d = self.nested(at, self.sum)
                self.expect_op(")")
                return self.node(Call(value, arg), d, at)
            if value in COORDS:
                return Var(value), 1
            raise ParseError(at, f"unknown identifier {value!r}")
        if value == "(":
            self.advance()
            node = self.nested(at, self.sum)
            self.expect_op(")")
            return node
        raise ParseError(at, f"unexpected token {value!r}")


def parse(text: str) -> Expr:
    """Parse expression text over the coordinates t, x and y."""
    if not text.strip():
        raise ParseError(0, "empty expression")
    return _Parser(text).parse()


def variables_of(e: Expr) -> set[str]:
    """Set of coordinate names appearing in the AST."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return variables_of(e.arg)
    if isinstance(e, Call):
        return variables_of(e.arg)
    if isinstance(e, BinOp):
        return variables_of(e.left) | variables_of(e.right)
    return set()


def coords_of(*exprs: Expr) -> tuple[int, ...]:
    """Sorted positions in COORDS of the coordinates the expressions depend on."""
    names = set().union(*map(variables_of, exprs))
    return tuple(i for i, name in enumerate(COORDS) if name in names)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(e: Expr, parent_prec: int = 0, right_of: str | None = None) -> str:
    """Render an AST back to text; parse(pretty(e)) reproduces e."""
    if isinstance(e, Num):
        text = repr(e.value)
        return text
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({pretty(e.arg)})"
    if isinstance(e, Neg):
        inner = pretty(e.arg, _PREC["neg"])
        text = f"-{inner}"
        needs = parent_prec > _PREC["neg"] or (
            parent_prec == _PREC["neg"] and right_of in ("-", "/")
        )
        return f"({text})" if needs else text
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        if e.op == "^":
            # right operand re-enters at unary level
            text = f"{pretty(e.left, prec + 1)}^{pretty(e.right, _PREC['neg'])}"
        else:
            text = (
                f"{pretty(e.left, prec)} {e.op} "
                f"{pretty(e.right, prec + 1, right_of=e.op)}"
            )
        needs = parent_prec > prec or (parent_prec == prec and right_of in ("-", "/"))
        return f"({text})" if needs else text
    raise TypeError(f"not an Expr node: {e!r}")


@jets.float_guard()
def eval_jet(e: Expr, points, order: int, coords: tuple[int, ...] | None = None) -> np.ndarray:
    """Stack of all partial derivatives of e up to total `order` along
    coords (positions in COORDS), by default the coordinates e depends on;
    coords must include them.

    points is one point (t, x, y) or an array of them of shape (..., 3);
    the stack has shape (table_size(order, coords), ...), so a whole grid
    evaluates in one pass.  Raises DomainError when the function is
    undefined at any of the points (log or sqrt out of range, division by
    zero, abs or non-integer power at a non-differentiable argument); the
    message names the first such value.  Under jets.float_guard, a step
    that leaves the float range at any point raises OverflowError("math
    range error"), which names no point, and so does a literal past the
    float range (1e400 reads as inf, as float() reads it); so no coefficient
    is non-finite.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if coords is None:
        coords = coords_of(e)
    return _eval(e, np.asarray(points, dtype=np.float64), order, coords)


_UNIVARIATE = {"exp": jets.jet_exp, "log": jets.jet_log, "sin": jets.jet_sin, "cos": jets.jet_cos, "sqrt": jets.jet_sqrt}


def _eval(e: Expr, pts: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    if isinstance(e, Num):
        if not np.isfinite(e.value):  # a literal past the float range reads as inf
            raise OverflowError("math range error")
        return jets.jet_constant(e.value, order, pts.shape[:-1], coords)
    if isinstance(e, Var):
        coord = COORDS.index(e.name)
        return jets.jet_variable(coord, pts[..., coord], order, coords)
    if isinstance(e, Neg):
        return -_eval(e.arg, pts, order, coords)
    if isinstance(e, Call):
        arg = _eval(e.arg, pts, order, coords)
        if e.func == "abs":
            if np.any(arg[0] == 0.0):
                raise DomainError(e, "abs is not differentiable at 0")
            return arg * np.where(arg[0] > 0, 1.0, -1.0)
        try:
            return _UNIVARIATE[e.func](arg, order, coords)
        except ValueError as err:
            raise DomainError(e, str(err)) from None
    if isinstance(e, BinOp):
        if e.op == "^":
            return _eval_pow(e, pts, order, coords)
        left = _eval(e.left, pts, order, coords)
        right = _eval(e.right, pts, order, coords)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return jets.jet_mul(left, right, order, coords)
        if e.op == "/":
            if np.any(right[0] == 0.0):
                raise DomainError(e, "division by zero")
            return jets.jet_div(left, right, order, coords)
    raise TypeError(f"not an Expr node: {e!r}")


_ORIGIN = np.zeros(3)


def _eval_pow(e: BinOp, pts: np.ndarray, order: int, coords: tuple[int, ...]) -> np.ndarray:
    base = _eval(e.left, pts, order, coords)
    exponent = float(_eval(e.right, _ORIGIN, 0, ())[0])  # a constant: the parser allows no variable
    if exponent == round(exponent):
        n = int(round(exponent))
        if n < 0 and np.any(base[0] == 0.0):
            raise DomainError(e, "negative power of zero")
        return jets.jet_powi(base, n, order, coords)
    # real exponent: exp(c * log(base)), defined for positive base only
    bad = base[0] <= 0.0
    if np.any(bad):
        raise DomainError(e, f"non-integer power of nonpositive base {jets.first_where(base[0], bad)}")
    scale = jets.jet_constant(exponent, order, base.shape[1:], coords)
    return jets.jet_exp(jets.jet_mul(jets.jet_log(base, order, coords), scale, order, coords), order, coords)
