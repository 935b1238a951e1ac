import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvhom import jets
from curvhom.expr import (
    MAX_DEPTH,
    MAX_NESTING,
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    ParseError,
    Var,
    coords_of,
    eval_jet,
    parse,
    pretty,
    variables_of,
)

P0 = (0.0, 0.0, 0.0)
X, ALL = 1, (0, 1, 2)


def test_parse_exp_call():
    assert parse("exp(2*x)") == Call("exp", BinOp("*", Num(2.0), Var("x")))


def test_parse_precedence_pow_before_plus():
    assert parse("x^2 + t") == BinOp("+", BinOp("^", Var("x"), Num(2.0)), Var("t"))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("x + * 2")
    assert err.value.position == 4

    with pytest.raises(ParseError):
        parse("exp(x")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as err:
        parse("x + q")
    assert err.value.position == 4


NESTINGS = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "calls": lambda n: "exp(" * n + "x" + ")" * n,
    "unary minuses": lambda n: "-" * n + "x",
    "exponents": lambda n: "x" + "^1" * n,
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_to_the_limit_parses_and_one_level_more_is_refused(kind):
    e = parse(NESTINGS[kind](MAX_NESTING))
    assert parse(pretty(e)) == e
    with pytest.raises(ParseError, match=f"^expression nested more than {MAX_NESTING} levels deep"):
        parse(NESTINGS[kind](MAX_NESTING + 1))


@pytest.mark.parametrize("op", "+-*/")
def test_operator_chains_to_the_depth_limit_parse_and_one_term_more_is_refused(op):
    assert variables_of(parse(op.join(["x"] * MAX_DEPTH))) == {"x"}
    with pytest.raises(ParseError, match=f"^expression tree deeper than {MAX_DEPTH} levels"):
        parse(op.join(["x"] * (MAX_DEPTH + 1)))
    # the depth adds up over the levels of nesting: ten calls take ten levels of the tree
    e = parse("sin(" * 10 + op.join(["x"] * (MAX_DEPTH - 10)) + ")" * 10)
    assert pretty(parse(pretty(e))) == pretty(e)
    with pytest.raises(ParseError, match="deeper than"):
        parse("sin(" * 10 + op.join(["x"] * (MAX_DEPTH - 9)) + ")" * 10)


def test_unary_minus_binds_looser_than_pow():
    # -x^2 evaluates to -(x^2)
    e = parse("-x^2")
    j = eval_jet(e, (0.0, 3.0, 0.0), 0)
    assert j[0] == -9.0
    assert eval_jet(parse("2^-2"), P0, 0)[0] == 0.25


def test_variable_exponent_is_rejected():
    with pytest.raises(ParseError):
        parse("x^t")
    with pytest.raises(ParseError):
        parse("2^(x+1)")
    assert eval_jet(parse("x^(1+1)"), (0.0, 3.0, 0.0), 0)[0] == 9.0


def test_eval_jet_polynomial():
    j = eval_jet(parse("x^2"), (0.0, 1.0, 0.0), 2)
    assert j[0] == 1.0
    assert jets.partial(j, (0, 1, 0), 2, (X,)) == 2.0
    assert jets.partial(j, (0, 2, 0), 2, (X,)) == 2.0
    for m in jets.multi_indices(2, ALL):
        if m[0] or m[2]:
            assert jets.partial(j, m, 2, (X,)) == 0.0


def test_eval_jet_exp_at_zero():
    j = eval_jet(parse("exp(x)"), P0, 4)
    for k in range(5):
        assert jets.partial(j, (0, k, 0), 4, (X,)) == pytest.approx(1.0)


def _central_diff(fn, x, k, step):
    # k-th derivative by iterated central differences; extended precision
    # keeps the subtractive cancellation below the comparison tolerances
    x, step = np.longdouble(x), np.longdouble(step)

    def rec(xv, kk):
        if kk == 0:
            return fn(xv)
        return (rec(xv + step, kk - 1) - rec(xv - step, kk - 1)) / (2 * step)

    return float(rec(x, k))


def test_eval_jet_exp_sum_matches_hand_derivative_and_finite_differences():
    e = parse("exp(x) + exp(2*x)")
    order = 4
    j = eval_jet(e, P0, order)
    for k in range(order + 1):
        assert jets.partial(j, (0, k, 0), order, (X,)) == pytest.approx(1 + 2**k, rel=1e-12)
    fn = lambda x: np.exp(x) + np.exp(2 * x)
    for k in range(1, 4):
        fd = _central_diff(fn, 0.0, k, 1e-3)
        assert jets.partial(j, (0, k, 0), order, (X,)) == pytest.approx(fd, rel=1e-4)


# --- random polynomial oracle -------------------------------------------------

monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(
    lambda m: sum(m) <= 4
)
polys = st.dictionaries(monomials, st.integers(-5, 5), min_size=1, max_size=5)


def _poly_expr(poly):
    terms = []
    for (i, j, k), c in sorted(poly.items()):
        factors = [str(c)]
        factors += ["t"] * i + ["x"] * j + ["y"] * k
        terms.append("*".join(factors))
    return parse(" + ".join(terms))


def _poly_partial(poly, m, point):
    # exact derivative of a monomial dict, evaluated at point
    total = 0.0
    for (i, j, k), c in poly.items():
        exps = (i, j, k)
        if any(e < mm for e, mm in zip(exps, m)):
            continue
        coef = c
        val = 1.0
        for e, mm, pv in zip(exps, m, point):
            coef *= math.perm(e, mm)
            val *= pv ** (e - mm)
        total += coef * val
    return total


@given(polys)
@settings(max_examples=80)
def test_polynomial_jets_match_symbolic_differentiation(poly):
    e = _poly_expr(poly)
    point = (0.5, -1.5, 2.0)
    j = eval_jet(e, point, 4)
    for m in jets.multi_indices(4, ALL):
        expected = _poly_partial(poly, m, point)
        got = jets.partial(j, m, 4, coords_of(e))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize(
    "text, fn, x0",
    [
        ("exp(x)*sin(x)", lambda v: np.exp(v) * np.sin(v), 0.4),
        ("log(1 + x^2)", lambda v: np.log(1 + v * v), 0.7),
        ("sqrt(4 + x)", lambda v: np.sqrt(4 + v), 0.3),
        ("cos(2*x)/(2 + x)", lambda v: np.cos(2 * v) / (2 + v), 0.9),
    ],
)
def test_smooth_jets_match_central_differences(text, fn, x0):
    e = parse(text)
    j = eval_jet(e, (0.0, x0, 0.0), 3)
    for k in range(1, 4):
        fd = _central_diff(fn, x0, k, 1e-4)
        assert jets.partial(j, (0, k, 0), 3, (X,)) == pytest.approx(fd, rel=1e-5)


# --- round trip ----------------------------------------------------------------


def ast_nodes(depth=3):
    leaf = st.one_of(
        st.floats(min_value=0, max_value=9, allow_nan=False).map(lambda v: Num(float(v))),
        st.sampled_from(["t", "x", "y"]).map(Var),
    )

    def extend(children):
        unary = st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from(["exp", "sin", "cos"]), children).map(lambda p: Call(*p)),
        )
        binop = st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children).map(
            lambda p: BinOp(*p)
        )
        powop = st.tuples(children, st.integers(0, 3)).map(
            lambda p: BinOp("^", p[0], Num(float(p[1])))
        )
        return st.one_of(unary, binop, powop)

    return st.recursive(leaf, extend, max_leaves=8)


@given(ast_nodes())
@settings(max_examples=150)
def test_pretty_print_parse_round_trip(e):
    assert parse(pretty(e)) == e


@given(ast_nodes(), st.integers(0, 3))
@settings(max_examples=100)
def test_eval_jet_over_own_coordinates_embeds_into_the_full_jet(e, order):
    points = np.array([[0.3, -0.7, 1.1], [1.3, 0.4, -0.2]])
    try:
        full = eval_jet(e, points, order, (0, 1, 2))
    except (DomainError, OverflowError) as err:
        with pytest.raises(type(err)):
            eval_jet(e, points, order)
        return
    own = eval_jet(e, points, order)
    coords = coords_of(e)
    assert coords == tuple(i for i, name in enumerate("txy") if name in variables_of(e))
    assert own.shape == (jets.table_size(order, coords), 2)
    position = jets.index_position(order, ALL)
    for m in jets.multi_indices(order, ALL):
        if m in jets.index_position(order, coords):
            # the same Leibniz rows in the same order: equal to the last bit
            np.testing.assert_array_equal(jets.partial(own, m, order, coords), full[position[m]])
        else:
            np.testing.assert_array_equal(full[position[m]], 0.0)
            np.testing.assert_array_equal(jets.partial(own, m, order, coords), 0.0)


def test_variables_of():
    assert variables_of(parse("exp(2*x) + t*y")) == {"t", "x", "y"}
    assert variables_of(parse("1 + 2")) == set()


def test_domain_errors_name_the_subexpression():
    with pytest.raises(DomainError) as err:
        eval_jet(parse("log(x - 2)"), P0, 1)
    assert "log(x - 2.0)" in str(err.value)

    with pytest.raises(DomainError):
        eval_jet(parse("1/x"), P0, 1)
    with pytest.raises(DomainError):
        eval_jet(parse("abs(x)"), P0, 1)
    with pytest.raises(DomainError):
        eval_jet(parse("x^0.5"), (0.0, -1.0, 0.0), 1)
    with pytest.raises(DomainError):
        eval_jet(parse("sqrt(x)"), (0.0, -1.0, 0.0), 1)


def test_abs_away_from_zero():
    j = eval_jet(parse("abs(x)"), (0.0, -2.0, 0.0), 1)
    assert j[0] == 2.0
    assert jets.partial(j, (0, 1, 0), 1, (X,)) == -1.0


def test_real_exponent_positive_base():
    j = eval_jet(parse("x^1.5"), (0.0, 4.0, 0.0), 1)
    assert j[0] == pytest.approx(8.0)
    assert jets.partial(j, (0, 1, 0), 1, (X,)) == pytest.approx(3.0)
