import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvhom import jets
from curvhom.jets import (
    jet_compose_univariate,
    jet_constant,
    jet_derivative,
    jet_div,
    jet_exp,
    jet_log,
    jet_mul,
    jet_powi,
    jet_sin,
    jet_sqrt,
    jet_variable,
    partial,
)

T, X, Y = 0, 1, 2
ALL = (T, X, Y)


def finite_jets(order=3):
    return st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=jets.table_size(order, ALL),
        max_size=jets.table_size(order, ALL),
    ).map(np.asarray)


def test_multi_index_tables_are_graded_prefixes():
    for order in range(6):
        assert jets.multi_indices(order, ALL) == jets.multi_indices(order + 1, ALL)[: jets.table_size(order, ALL)]
    assert jets.table_size(3, ALL) == 20  # C(6,3)


def test_product_rule_x_times_x():
    x = jet_variable(X, 2.0, 2, ALL)
    sq = jet_mul(x, x, 2, ALL)
    assert sq[0] == 4.0
    assert partial(sq, (0, 1, 0), 2, ALL) == 4.0
    assert partial(sq, (0, 2, 0), 2, ALL) == 2.0


def test_compose_exp_of_2x():
    inner = jet_mul(jet_constant(2.0, 3, (), ALL), jet_variable(X, 0.0, 3, ALL), 3, ALL)
    e = jet_exp(inner, 3, ALL)
    assert [partial(e, (0, k, 0), 3, ALL) for k in range(4)] == pytest.approx([1, 2, 4, 8])


def test_div_third_by_second_derivative_of_cubic():
    # h = t^3 at t = 2: h'' = 6t, h''' = 6
    t = jet_variable(T, 2.0, 5, ALL)
    h = jet_powi(t, 3, 5, ALL)
    h2 = jet_derivative(jet_derivative(h, T, 5, ALL), T, 4, ALL)
    h3 = jet_derivative(h2, T, 3, ALL)
    q = jet_div(h3, h2, 2, ALL)
    assert q[0] == pytest.approx(6.0 / 12.0)


def test_partial_examples():
    sq = jet_mul(jet_variable(X, 3.0, 2, ALL), jet_variable(X, 3.0, 2, ALL), 2, ALL)
    assert partial(sq, (0, 1, 0), 2, ALL) == pytest.approx(6.0)

    inner = jet_mul(jet_constant(2.0, 2, (), ALL), jet_variable(X, 0.0, 2, ALL), 2, ALL)
    assert partial(jet_exp(inner, 2, ALL), (0, 2, 0), 2, ALL) == pytest.approx(4.0)

    assert partial(sq, (0, 0, 0), 2, ALL) == sq[0]


def test_partial_rejects_out_of_order_index():
    j = jet_variable(X, 1.0, 2, ALL)
    with pytest.raises(ValueError):
        partial(j, (1, 1, 1), 2, ALL)
    with pytest.raises(ValueError):
        partial(j, (0, -1, 0), 2, ALL)


@given(finite_jets(), finite_jets())
def test_add_and_mul_commute(a, b):
    np.testing.assert_allclose(a + b, b + a, rtol=1e-12)
    np.testing.assert_allclose(jet_mul(a, b, 3, ALL), jet_mul(b, a, 3, ALL), rtol=1e-12, atol=1e-12)


@given(finite_jets(order=2), finite_jets(order=2), finite_jets(order=2))
@settings(max_examples=50)
def test_mul_associates(a, b, c):
    left = jet_mul(jet_mul(a, b, 2, ALL), c, 2, ALL)
    right = jet_mul(a, jet_mul(b, c, 2, ALL), 2, ALL)
    scale = max(1.0, np.abs(left).max())
    np.testing.assert_allclose(left / scale, right / scale, atol=1e-12)


def test_mul_matches_leibniz_expansion_exhaustively():
    rng = np.random.default_rng(7)
    order = 3
    a = rng.normal(size=jets.table_size(order, ALL))
    b = rng.normal(size=jets.table_size(order, ALL))
    prod = jet_mul(a, b, order, ALL)
    for gamma in jets.multi_indices(order, ALL):
        total = 0.0
        for alpha in jets.multi_indices(order, ALL):
            beta = tuple(g - al for g, al in zip(gamma, alpha))
            if min(beta) < 0:
                continue
            w = math.prod(math.comb(g, al) for g, al in zip(gamma, alpha))
            total += w * partial(a, alpha, order, ALL) * partial(b, beta, order, ALL)
        assert partial(prod, gamma, order, ALL) == pytest.approx(total, rel=1e-12, abs=1e-12)


def _row_reference(op, a, b, points_a, points_b, order, coords):
    """stacked_product as the plain Leibniz loop: one einsum per product-table
    row, with the point axis z named in the operands that have it."""
    slots = ("...", "...", "...") if op is np.multiply else ("...ik", "...kj", "...ij")
    subscripts = f"{'z' * points_a}{slots[0]},{'z' * points_b}{slots[1]}->{'z' * (points_a or points_b)}{slots[2]}"
    total = None
    for pos_a, pos_b, pos_out, coef in zip(*jets.product_table(order, coords)[:4]):
        term = coef * np.einsum(subscripts, a[pos_a], b[pos_b])
        if total is None:
            total = np.zeros((jets.table_size(order, coords),) + term.shape)
        total[pos_out] += term
    return total


# the row operation and slot shapes of each contraction geometry.py does, of a plain
# matrix product and of a broadcast, keyed by the einsum over the slots each stands
# for; slot sizes vary so that a mixed-up axis changes the shape or the values
PRODUCTS = {
    "ij,ij->ij": (np.multiply, (3, 2), (3, 2)),
    "j,j->": (np.matmul, (1, 2), (2, 1)),
    ",ij->ij": (np.multiply, (1, 1), (3, 2)),
    "ab,bij->aij": (np.matmul, (2, 3), (3, 6)),
    "b,bjk->jk": (np.matmul, (1, 3), (3, 8)),
    "akb,baj->jk": (np.matmul, (4, 6), (6, 2)),
    "jk,jk->": (np.matmul, (1, 8), (8, 1)),
    ",jk->jk": (np.multiply, (1, 1), (2, 4)),
    ",->": (np.multiply, (), ()),
    "ik,kj->ij": (np.matmul, (3, 4), (4, 2)),
    "broadcast": (np.multiply, (2, 1, 4), (1, 3, 4)),
}


# order 1 over one coordinate has 3 Leibniz rows, as many as the 3 points: an
# operand without a point axis must not pair its rows with the other's points
@pytest.mark.parametrize(
    "order, coords", [*((order, ALL) for order in range(7)), (1, (X,))], ids=[*map(str, range(7)), "1-x"]
)
@pytest.mark.parametrize("op, slots_a, slots_b", PRODUCTS.values(), ids=PRODUCTS)
def test_stacked_product_matches_row_reference(op, slots_a, slots_b, order, coords):
    rng = np.random.default_rng(order)
    n = jets.table_size(order, coords)
    slots = np.broadcast_shapes(slots_a, slots_b) if op is np.multiply else slots_a[:-1] + slots_b[-1:]
    for npts in (1, 3, 33):
        for points_a, points_b in ((True, True), (True, False), (False, True), (False, False)):
            # a is longer than the table: only the prefix is read
            a = rng.normal(size=(n + 3,) + (npts,) * points_a + slots_a)
            b = rng.normal(size=(n,) + (npts,) * points_b + slots_b)
            got = jets.stacked_product(a, b, order, coords, op)
            want = _row_reference(op, a, b, points_a, points_b, order, coords)
            assert got.shape == want.shape == (n,) + (npts,) * (points_a or points_b) + slots
            # the loop sums in another order: allow a few ulps of the largest entry
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


def _jet(entries, order=3):
    """A jet over (t, x, y) from its nonzero entries, {multi-index: value}."""
    idx = jets.multi_indices(order, ALL)
    out = np.zeros(len(idx))
    for m, value in entries.items():
        out[idx.index(m)] = value
    return out


@given(finite_jets(), finite_jets())
# the forward error grows like (max |b_k| / |b_0|)^3, here 9.8e4: a comes back off by 1.7e-10 of its size, the residual is 2e-16
@example(_jet({(0, 0, 0): 8.3125}), _jet({(0, 0, 0): 0.13034632496618137, (0, 0, 1): 6.0}))
@settings(max_examples=60)
def test_div_inverts_mul(a, b):
    if abs(b[0]) < 0.1:
        return
    prod = jet_mul(a, b, 3, ALL)
    back = jet_div(prod, b, 3, ALL)
    # backward stable on every draw: back times b gives prod back to round-off
    np.testing.assert_allclose(jet_mul(back, b, 3, ALL) - prod, 0.0, atol=1e-13 * max(1.0, np.abs(prod).max()))
    if (np.abs(b).max() / abs(b[0])) ** 3 < 1e4:  # a well-conditioned divisor: a itself comes back
        scale = max(1.0, np.abs(a).max())
        np.testing.assert_allclose(back / scale, a / scale, atol=1e-10)


def test_div_by_zero_value_jet():
    with pytest.raises(ZeroDivisionError):
        jet_div(jet_constant(1.0, 2, (), ALL), jet_variable(X, 0.0, 2, ALL), 2, ALL)


def test_log_sin_sqrt_derivatives():
    x = jet_variable(X, 2.0, 4, ALL)
    lg = jet_log(x, 4, ALL)
    assert [partial(lg, (0, k, 0), 4, ALL) for k in range(5)] == pytest.approx(
        [math.log(2), 0.5, -0.25, 0.25, -0.375]
    )
    s = jet_sin(jet_variable(X, 0.3, 3, ALL), 3, ALL)
    assert [partial(s, (0, k, 0), 3, ALL) for k in range(4)] == pytest.approx(
        [math.sin(0.3), math.cos(0.3), -math.sin(0.3), -math.cos(0.3)]
    )
    r = jet_sqrt(jet_variable(X, 4.0, 2, ALL), 2, ALL)
    assert [partial(r, (0, k, 0), 2, ALL) for k in range(3)] == pytest.approx([2.0, 0.25, -1.0 / 32])


def test_negative_integer_power():
    x = jet_variable(X, 2.0, 2, ALL)
    inv = jet_powi(x, -2, 2, ALL)  # d/dx x^-2 = -2 x^-3, d2 = 6 x^-4
    assert [partial(inv, (0, k, 0), 2, ALL) for k in range(3)] == pytest.approx([0.25, -0.25, 0.375])


def test_domain_errors_in_univariate_functions():
    with pytest.raises(ValueError):
        jet_log(jet_constant(-1.0, 2, (), ALL), 2, ALL)
    with pytest.raises(ValueError):
        jet_sqrt(jet_constant(0.0, 2, (), ALL), 2, ALL)


def test_compose_needs_enough_outer_derivatives():
    with pytest.raises(ValueError):
        jet_compose_univariate(jet_variable(X, 0.0, 3, ALL), [1.0, 1.0], 3, ALL)


def _loop_product_table(order):
    """The Leibniz convolution table built by plain loops, as a reference."""
    idx = jets.multi_indices(order, ALL)
    pos = jets.index_position(order, ALL)
    rows = []
    for ai, alpha in enumerate(idx):
        for bi, beta in enumerate(idx):
            if sum(alpha) + sum(beta) <= order:
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                coef = math.prod(math.comb(a + b, a) for a, b in zip(alpha, beta))
                rows.append((ai, bi, pos[gamma], float(coef)))
    return tuple(np.array(col) for col in zip(*rows))


def test_tables_match_loop_reference():
    for order in range(11):
        ref = _loop_product_table(order)
        a_pos, b_pos, out_pos, coef = ref
        perm = np.argsort(out_pos, kind="stable")
        *table, starts = jets.product_table(order, ALL)
        for got, want in zip(table, (col[perm] for col in ref), strict=True):
            np.testing.assert_array_equal(got, want)  # same rows, in the same order
        size = jets.table_size(order, ALL)
        np.testing.assert_array_equal(starts, [np.count_nonzero(out_pos < p) for p in range(size)])
        # division: per position gamma, every row except q[gamma] * b[0]
        plan = jets._division_plan(order, ALL)
        assert len(plan) == order
        for d, (lo, hi, qa, bb, cf, starts) in enumerate(plan, start=1):
            assert (lo, hi) == (jets.table_size(d - 1, ALL), jets.table_size(d, ALL))
            per_pos = [np.flatnonzero((out_pos == gi) & ~((a_pos == gi) & (b_pos == 0))) for gi in range(lo, hi)]
            rows = np.concatenate(per_pos)
            np.testing.assert_array_equal(qa, a_pos[rows])
            np.testing.assert_array_equal(bb, b_pos[rows])
            np.testing.assert_array_equal(cf, coef[rows])
            np.testing.assert_array_equal(starts, np.cumsum([0] + [len(r) for r in per_pos[:-1]]))


def test_batched_jets_match_pointwise():
    rng = np.random.default_rng(11)
    order = 3
    n = jets.table_size(order, ALL)
    a, b = rng.normal(size=(n, 5)), rng.normal(size=(n, 5)) + np.eye(n, 5)[0] * 4.0
    for op in (jet_mul, jet_div):
        batched = op(a, b, order, ALL)
        for i in range(5):
            np.testing.assert_allclose(batched[:, i], op(a[:, i], b[:, i], order, ALL), rtol=1e-14)
    logs = jet_log(np.abs(a) + 1.0, order, ALL)
    for i in range(5):
        np.testing.assert_allclose(logs[:, i], jet_log(np.abs(a[:, i]) + 1.0, order, ALL), rtol=1e-14)
    with pytest.raises(ValueError, match="log of nonpositive value -2.0"):
        jet_log(jet_variable(X, np.array([1.0, -2.0, -3.0]), 1, ALL), 1, ALL)


def test_negative_power_that_underflows_overflows():
    # (1e-200)^2 underflows to 0, so (1e-200)^-2 is out of range, as in Python
    with pytest.raises(OverflowError):
        jet_powi(jet_variable(X, 1e-200, 2, ALL), -2, 2, ALL)


# ---------------------------------------------------------------------------
# tables and jets over a subset of the coordinates

COORD_SETS = [c for size in range(4) for c in itertools.combinations((T, X, Y), size)]


@pytest.mark.parametrize("coords", COORD_SETS)
def test_tables_over_coords_restrict_the_full_tables(coords):
    for order in range(7):
        full = jets.multi_indices(order, ALL)
        keep = [p for p, m in enumerate(full) if all(m[c] == 0 for c in (T, X, Y) if c not in coords)]
        assert jets.multi_indices(order, coords) == tuple(full[p] for p in keep)
        assert jets.table_size(order, coords) == len(keep)
        position = {p: i for i, p in enumerate(keep)}  # full-table position -> position over coords
        a_pos, b_pos, out_pos, coef, _ = jets.product_table(order, ALL)
        rows = [r for r in range(len(a_pos)) if int(a_pos[r]) in position and int(b_pos[r]) in position]
        want = [[position[int(col[r])] for r in rows] for col in (a_pos, b_pos, out_pos)] + [coef[rows]]
        for got, expected in zip(jets.product_table(order, coords), want):
            np.testing.assert_array_equal(got, expected)  # the same rows, in the same order


@pytest.mark.parametrize("coords", COORD_SETS)
def test_solve_inverts_the_matrix_product(coords):
    rng = np.random.default_rng(len(coords) * 7 + sum(coords))
    for order in range(7):
        n = jets.table_size(order, coords)
        b = rng.normal(size=(n, 4, 3, 3))
        b[0] += 3.0 * np.eye(3)  # b_0 well conditioned
        a = rng.normal(size=(n, 4, 3, 2))
        q = jets.jet_solve(b, a, order, coords)
        back = jets.stacked_product(b, q, order, coords, np.matmul)
        # relative to the same product on absolute values, the size of the terms that cancel
        scale = jets.stacked_product(np.abs(b), np.abs(q), order, coords, np.matmul)
        assert np.all(np.abs(back - a) <= 1e-12 * scale)


def test_coords_must_be_sorted_and_hold_the_variable():
    with pytest.raises(ValueError):
        jet_variable(T, 1.0, 2, (X,))
    with pytest.raises(ValueError):
        jets.table_size(2, (1, 0))


def test_derivatives_along_absent_coordinates_are_zero():
    x = jet_variable(X, np.array([3.0, -1.0]), 3, (X,))
    sq = jet_mul(x, x, 3, (X,))
    assert sq.shape == (4, 2)
    np.testing.assert_array_equal(partial(sq, (0, 1, 0), 3, (X,)), [6.0, -2.0])
    np.testing.assert_array_equal(partial(sq, (1, 1, 0), 3, (X,)), [0.0, 0.0])
    np.testing.assert_array_equal(partial(sq, (0, 0, 2), 3, (X,)), [0.0, 0.0])
    x3 = jet_variable(X, 3.0, 2, (X,))
    assert partial(jet_mul(x3, x3, 2, (X,)), (0, 0, 1), 2, (X,)) == 0.0
    for coord in (T, Y):
        d = jet_derivative(sq, coord, 3, (X,))
        assert d.shape == (3, 2)
        assert not d.any()
    np.testing.assert_array_equal(jet_derivative(sq, X, 3, (X,)), [[6.0, -2.0], [2.0, 2.0], [0.0, 0.0]])


def _compose_reference(inner, outer_derivs, n, coords):
    """Horner one jet_mul at a time: acc * (inner - value) + d_k / k!, k = n-1 .. 0."""
    pert = inner.copy()
    pert[0] = 0.0
    acc = jet_constant(outer_derivs[n] / math.factorial(n), n, pert.shape[1:], coords)
    for k in range(n - 1, -1, -1):
        acc = jet_mul(acc, pert, n, coords) + jet_constant(outer_derivs[k] / math.factorial(k), n, pert.shape[1:], coords)
    return acc


@pytest.mark.parametrize("coords", [(X,), (T, X), (T, X, Y)])
@pytest.mark.parametrize("order", [0, 1, 4, 8])
def test_compose_on_coefficient_arrays_equals_horner_on_jets(coords, order):
    rng = np.random.default_rng(order * 10 + len(coords))
    inner = rng.normal(size=(jets.table_size(order, coords), 5))
    derivs = [rng.normal(size=5) for _ in range(order)] + [2.5]  # arrays over the batch, then a scalar
    got, want = jet_compose_univariate(inner, derivs, order, coords), _compose_reference(inner, derivs, order, coords)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)  # bit-equal but for the sign of zeros, which the reference adds 0.0 to


# ---------------------------------------------------------------------------
# the floating-point guard every evaluation runs under


def test_underflow_to_zero_is_silent_under_the_guard():
    import warnings

    from curvhom.expr import eval_jet, parse

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = eval_jet(parse("exp(-x)"), [(0.0, 800.0, 0.0)], 3)
    assert j.shape == (4, 1)
    np.testing.assert_array_equal(j, 0.0)  # e^-800 is below the smallest subnormal


@pytest.mark.parametrize("text", ["exp(x)", "x*1e300*1e300", "cos(x*1e300*1e300)", "x^1000"])
def test_overflow_under_the_guard_is_a_math_range_error(text):
    from curvhom.expr import eval_jet, parse

    with pytest.raises(OverflowError, match=r"^math range error$"):
        eval_jet(parse(text), [(0.0, 800.0, 0.0)], 2)


@pytest.mark.parametrize("fails", [False, True])
def test_the_guard_leaves_numpy_error_state_as_it_found_it(fails):
    before = np.geterr()
    with np.errstate(over="warn", invalid="ignore", divide="print", under="raise"):
        inner = np.geterr()
        try:
            with jets.float_guard():
                assert np.geterr() == {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}
                np.exp(np.array([1000.0 if fails else 1.0]))
        except OverflowError:
            assert fails
        else:
            assert not fails
        assert np.geterr() == inner
    assert np.geterr() == before


def test_zero_division_is_raised_before_the_guard_sees_it():
    with jets.float_guard(), pytest.raises(ZeroDivisionError):
        jet_div(jet_constant(1.0, 2, (), ALL), jet_constant(0.0, 2, (), ALL), 2, ALL)


@pytest.mark.parametrize("k", [1, 3])
def test_an_inverse_past_the_float_range_is_a_math_range_error(k):
    # np.linalg.inv ignores numpy's error state, so the solve checks b_0's inverse itself
    b = np.zeros((jets.table_size(1, ALL), 2, k, k))
    b[0], b[2] = np.eye(k), 1.0
    b[0, 1, 0, 0] = 1e-320
    a = jet_constant(1.0, 1, (2, k, 1), ALL)
    with jets.float_guard(), pytest.raises(OverflowError, match=r"^math range error$"):
        if k == 1:
            jet_div(a[..., 0, 0], b[..., 0, 0], 1, ALL)
        else:
            jets.jet_solve(b, a, 1, ALL)


# ---------------------------------------------------------------------------
# the order of a jet table


def test_orders_above_the_largest_float_factorial_are_refused():
    assert float(math.factorial(jets.MAX_ORDER)) < math.inf
    with pytest.raises(OverflowError):
        float(math.factorial(jets.MAX_ORDER + 1))
    assert jets.table_size(jets.MAX_ORDER, (X,)) == jets.MAX_ORDER + 1
    with pytest.raises(ValueError, match=f"jet order {jets.MAX_ORDER + 1} is above {jets.MAX_ORDER}"):
        jets.multi_indices(jets.MAX_ORDER + 1, (X,))


def test_one_coordinate_table_at_the_top_order_builds_in_linear_time():
    import time

    start = time.perf_counter()
    idx = jets.multi_indices(jets.MAX_ORDER, (Y,))
    assert time.perf_counter() - start < 0.5  # the three-coordinate loop took seconds at this order
    assert idx == tuple((0, 0, n) for n in range(jets.MAX_ORDER + 1))
