import itertools
import math

import numpy as np
import pytest

from curvhom.classify import (
    GridAxis,
    GridSpec,
    HypothesisViolation,
    SampleSet,
    classify,
    f_first_invariant,
    f_scale_ratio,
    h_first_invariant,
    h_second_ratios,
    relative_spread,
)
from curvhom.expr import parse
from curvhom.families import family_f_metric, family_h_metric
from curvhom.models import adapted_frame_f, adapted_frame_h, build_model, ch0_lambda_h, scaling_lambda_h
from curvhom.tensor import Frame

from .test_models import order0_group_frame, order1_group_frame

T, X, Y = 0, 1, 2
O = (0.0, 0.0, 0.0)


def x_grid(lo, hi, n):
    return SampleSet.from_grid(GridSpec((None, GridAxis(lo, hi, n), None)))


def t_grid(lo, hi, n):
    return SampleSet.from_grid(GridSpec((GridAxis(lo, hi, n), None, None)))


# --- invariant evaluators -------------------------------------------------------


def test_f_first_invariant_exponential():
    assert f_first_invariant(parse("exp(x)"), O) == pytest.approx(9.0, rel=1e-10)


def test_f_first_invariant_linear_profile_vanishes():
    for xv in (0.0, 0.7, 2.0):
        assert f_first_invariant(parse("x"), (0.0, xv, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_f_first_invariant_quadratic_at_origin():
    assert f_first_invariant(parse("x^2"), O) == pytest.approx(0.0, abs=1e-12)


def test_f_scale_ratio_values():
    assert f_scale_ratio(parse("exp(x)"), O) == pytest.approx(-1.125, rel=1e-10)
    assert f_scale_ratio(parse("x^2"), (0.0, 1.0, 0.0)) == pytest.approx(64 / -216, rel=1e-10)


def test_f_scale_ratio_constant_for_inverse_square_delta():
    # f = a log(x) with a^2 - a = 4 gives delta = 4/x^2 and ratio -1 everywhere
    a = (1 + math.sqrt(17)) / 2
    f = parse(f"{a!r}*log(x)")
    for xv in (0.4, 0.9, 1.7):
        assert f_scale_ratio(f, (0.0, xv, 0.0)) == pytest.approx(-1.0, rel=1e-9)


def test_h_first_invariant_values():
    assert h_first_invariant(parse("t^3"), (2.0, 0.0, 0.0)) == pytest.approx(0.25, rel=1e-10)
    for tv in (0.1, 1.0, 2.2):
        assert h_first_invariant(parse("exp(t)"), (tv, 0.0, 0.0)) == pytest.approx(1.0, rel=1e-10)
    assert h_first_invariant(parse("t^2"), (1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_h_second_ratios_values():
    r = h_second_ratios(parse("exp(t)"), (0.4, 0.0, 0.0))
    assert r.xi_t == pytest.approx(1.0, rel=1e-10)
    assert r.xi_x == pytest.approx(1.0, rel=1e-10)

    r3 = h_second_ratios(parse("t^3"), (1.0, 0.0, 0.0))
    assert r3.xi_t == pytest.approx(0.0, abs=1e-12)
    assert r3.xi_x == pytest.approx(0.5, rel=1e-10)
    assert r3.psi == pytest.approx(1.0, rel=1e-10)


def test_hypothesis_violations_raise():
    with pytest.raises(HypothesisViolation):
        h_second_ratios(parse("t^2"), (1.0, 0.0, 0.0))  # h''' = 0
    with pytest.raises(HypothesisViolation):
        h_first_invariant(parse("t^3"), O)  # h'' = 0 at t = 0
    with pytest.raises(HypothesisViolation):
        f_scale_ratio(parse("0"), O)  # delta = 0


# --- basis independence ---------------------------------------------------------


def test_f_invariants_agree_on_any_accepted_frame():
    f = parse("exp(x)")
    p = (0.0, 0.3, 0.0)
    g = family_f_metric(f)
    base = adapted_frame_f(f, p, 1.0)
    xi = f_first_invariant(f, p)
    ratio = f_scale_ratio(f, p)
    rng = np.random.default_rng(2)
    for _ in range(25):
        a1, a4 = rng.choice([-1.0, 1.0], size=2)
        frame = Frame(base.matrix @ order0_group_frame(a1, a4, a3=float(rng.normal())).matrix)
        model = build_model(g, p, 1, frame)
        e0 = model.tensor(0).components[T, X, X, T]
        e1 = model.tensor(1).components[T, X, X, T, X]
        assert e1**2 == pytest.approx(xi, rel=1e-9)
        assert e1**2 / e0**3 == pytest.approx(ratio, rel=1e-9)


def test_h_invariants_agree_on_any_accepted_frame():
    h = parse("t^3")
    p = (1.3, 0.0, 0.0)
    g = family_h_metric(h)
    xi = h_first_invariant(h, p)
    ratios = h_second_ratios(h, p)
    rng = np.random.default_rng(3)
    ch0_base = adapted_frame_h(h, p, ch0_lambda_h(h, p))
    for _ in range(20):
        a1, a4 = rng.choice([-1.0, 1.0], size=2)
        frame = Frame(ch0_base.matrix @ order0_group_frame(a1, a4, a3=float(rng.normal())).matrix)
        model = build_model(g, p, 1, frame)
        assert model.tensor(1).components[T, X, X, T, T] ** 2 == pytest.approx(xi, rel=1e-9)
    sch_base = adapted_frame_h(h, p, scaling_lambda_h(h, p))
    for b2 in (1.0, -1.0):
        model = build_model(g, p, 2, Frame(sch_base.matrix @ order1_group_frame(b2).matrix))
        psi = abs(model.tensor(0).components[T, X, X, T])
        assert -model.tensor(2).components[T, X, X, T, X, X] / psi**2 == pytest.approx(
            ratios.xi_x, rel=1e-9
        )


# --- classify -------------------------------------------------------------------


def test_classify_f_exponential():
    rep = classify(family_f_metric(parse("exp(x)")), 3, x_grid(0, 1, 9))
    assert rep.verdict("CH_0").status == "pass"
    for k in range(4):
        assert rep.verdict(f"CH_{k}(1,3)").status == "pass"
    assert rep.verdict("SCH_1(1,3)").status == "fail"
    assert rep.series("xi").spread > 0.5
    assert any("not CH_1" in n for n in rep.notes)


def test_classify_h_cubic_flags_contradiction():
    rep = classify(family_h_metric(parse("t^3")), 2, t_grid(1, 2, 9))
    assert rep.verdict("CH_0").status == "pass"
    assert rep.verdict("SCH_1(1,3)").status == "pass"
    v2 = rep.verdict("SCH_2(1,3)")
    assert v2.status == "fail"
    assert any("would contradict non-CH_1" in n for n in v2.notes)
    assert rep.series("xi").values[0] == pytest.approx(1.0, rel=1e-9)
    assert rep.series("xi").values[-1] == pytest.approx(0.25, rel=1e-9)
    assert rep.series("xi_X").spread == pytest.approx(0.0, abs=1e-9)


def test_classify_h_exponential_all_constant():
    rep = classify(family_h_metric(parse("exp(t)")), 2, t_grid(0, 1, 9))
    for v in rep.verdicts:
        assert v.status == "pass"
    for s in list(rep.invariants) + [rep.psi]:
        assert s.spread == pytest.approx(0.0, abs=1e-9)
    assert any("constant within tol" in n for n in rep.notes)


def test_representative_scaled_entry_is_stable_under_round_off(monkeypatch):
    """On h = exp(t) many order-2 columns reach |entry| 1 up to round-off,
    with both signs; moving any one of them up by a few ulps leaves the
    printed scaled_order_2 series as it was."""
    import importlib

    cl = importlib.import_module("curvhom.classify")  # the package exports the function under this name

    spec = cl.FAMILIES["h"]
    g, grid = family_h_metric(parse("exp(t)")), t_grid(0, 1, 9)
    want = classify(g, 2, grid).series("scaled_order_2").values
    a2 = spec.samples(g, 2, np.asarray(grid.points)).aligned[2]
    flat = a2.components.reshape(len(grid.points), -1)
    top = np.abs(flat).max(axis=0)
    tied = np.flatnonzero(top >= (1 - 1e-12) * top.max())
    assert set(np.sign(flat[0, tied]).tolist()) == {-1.0, 1.0}

    for c in tied:
        def nudged(g, kmax, points, c=c):
            s = spec.samples(g, kmax, points)
            a2 = s.aligned[2].components  # a view of the sequence's entries
            a2[(slice(None),) + np.unravel_index(c, a2.shape[1:])] *= 1 + 1e-15
            return s

        monkeypatch.setitem(cl.FAMILIES, "h", spec._replace(samples=nudged))
        got = classify(g, 2, grid).series("scaled_order_2").values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_classify_flat_metric_is_degenerate_pass():
    rep = classify(family_f_metric(parse("0")), 2, x_grid(0, 1, 5))
    assert rep.degenerate
    for v in rep.verdicts:
        assert v.status == "pass"
        assert "degenerate: zero curvature" in v.notes
    assert all(v == 0.0 for v in rep.series("xi").values)


@pytest.mark.parametrize("profile", ["x^2", "exp(x)"])
@pytest.mark.parametrize("shift", ["+ 30", "- 20", "+ 200"])
def test_constant_shift_of_f_keeps_the_report(profile, shift):
    # f + c is f after t -> e^c t, however large or small e^{2c} makes g_tt
    grid = x_grid(0.1, 1.0, 9)
    base = classify(family_f_metric(parse(profile)), 2, grid)
    moved = classify(family_f_metric(parse(f"{profile} {shift}")), 2, grid)
    assert not moved.exclusions and not moved.degenerate
    assert [(v.name, v.status) for v in moved.verdicts] == [(v.name, v.status) for v in base.verdicts]
    assert [s.name for s in moved.invariants] == [s.name for s in base.invariants]
    for a, b in zip(moved.invariants, base.invariants):
        np.testing.assert_allclose(a.values, b.values, rtol=1e-9)


def test_classify_locally_symmetric_quadratic_h():
    # h = t^2: nabla R = 0 identically; higher orders vacuous
    rep = classify(family_h_metric(parse("t^2")), 2, t_grid(0, 1, 5))
    assert rep.verdict("CH_0").status == "pass"
    for k in range(3):
        assert rep.verdict(f"CH_{k}(1,3)").status == "pass"
        assert rep.verdict(f"SCH_{k}(1,3)").status == "pass"


def test_classify_sign_change_fails_ch0():
    # h'' = 6t changes sign across t = 0; the zero point is excluded
    rep = classify(family_h_metric(parse("t^3")), 1, t_grid(-1, 1, 5))
    assert rep.verdict("CH_0").status == "fail"
    assert len(rep.exclusions) == 1
    assert rep.exclusions[0].point == (0.0, 0.0, 0.0)


def test_classify_hypothesis_violated_everywhere():
    rep = classify(family_h_metric(parse("0.000000001*t^2")), 1, t_grid(0, 1, 5))
    for v in rep.verdicts:
        assert v.status == "hypothesis-violated"


def test_classify_custom_metric_unsupported_unless_flat():
    one, zero = parse("1"), parse("0")
    from curvhom.families import custom_metric

    flat = custom_metric([[one, zero, zero], [zero, one, zero], [zero, zero, one]])
    rep = classify(flat, 1, x_grid(0, 1, 3))
    assert rep.degenerate

    curved = custom_metric(
        [[parse("exp(2*x)"), zero, zero], [zero, zero, one], [zero, one, zero]]
    )
    rep2 = classify(curved, 1, x_grid(0, 1, 3))
    assert not rep2.degenerate
    assert all(v.status == "hypothesis-violated" for v in rep2.verdicts)


def test_classify_validates_inputs():
    g = family_f_metric(parse("x"))
    with pytest.raises(ValueError):
        classify(g, -1, x_grid(0, 1, 3))
    with pytest.raises(ValueError):
        classify(g, 1, SampleSet(()))
    with pytest.raises(ValueError):
        classify(g, 1, x_grid(0, 1, 3), tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_classify_rejects_non_finite_tol(tol):
    # every "spread > tol" test is False under NaN, which would pass anything
    with pytest.raises(ValueError, match="finite"):
        classify(family_f_metric(parse("exp(x)")), 1, x_grid(0, 1, 5), tol=tol)


def test_classify_f_inverse_square_delta_is_simultaneously_scalable():
    a = (1 + math.sqrt(17)) / 2
    rep = classify(family_f_metric(parse(f"{a!r}*log(x)")), 3, x_grid(0.4, 1.4, 7))
    for k in range(4):
        assert rep.verdict(f"SCH_{k}(1,3)").status == "pass"
    # squared-entry evidence is nonconstant even though every ratio is constant
    assert rep.series("xi").spread > 1e-3
    assert any("governed by the ratio" in n for n in rep.notes)


def test_classify_exponential_profile_with_rate_constant_invariants():
    # h = e^{ct}: all ratios are exactly constant, any grid
    rep = classify(family_h_metric(parse("exp(0.5*t)")), 2, t_grid(0.2, 1.8, 7))
    for s in list(rep.invariants) + [rep.psi]:
        assert s.spread < 1e-10, s.name


def test_negative_second_derivative_profile_aligns_in_absolute_value():
    # h = -t^3: the aligned-frame identities hold with |.| and a fixed sign
    h = parse("-t^3")
    g = family_h_metric(h)
    for tv in (1.0, 1.5, 2.0):
        p = (tv, 0.0, 0.0)
        model = build_model(g, p, 1, adapted_frame_h(h, p, scaling_lambda_h(h, p)))
        e0 = model.tensor(0).components[T, X, X, T]
        e1 = model.tensor(1).components[T, X, X, T, T]
        psi = 1.0 / tv**2
        assert e0 < 0 and e1 < 0
        assert abs(e0) == pytest.approx(psi, rel=1e-10)
        assert abs(e1) == pytest.approx(psi**1.5, rel=1e-10)
    rep = classify(g, 2, t_grid(1, 2, 5))
    assert rep.verdict("CH_0").status == "pass"
    assert "epsilon = -1" in rep.verdict("CH_0").notes
    assert rep.verdict("SCH_1(1,3)").status == "pass"


def test_scaling_law_family_with_general_rate():
    # delta = 4/(c^2 x^2) with c = 2 comes from f = a log(x), a^2 - a = 1
    a = (1 + math.sqrt(5)) / 2
    f = parse(f"{a!r}*log(x)")
    from curvhom.families import delta_derivatives

    ladder = []
    for xv in (0.5, 1.0, 2.0):
        d = delta_derivatives(f, (0.0, xv, 0.0), 3)
        assert d[0] == pytest.approx(1.0 / xv**2, rel=1e-12)
        ladder.append([d[k] / d[0] ** ((k + 2) / 2) for k in range(4)])
    for k in range(4):
        col = [row[k] for row in ladder]
        assert max(col) - min(col) <= 1e-8 * max(1.0, abs(col[0]))


def test_report_serializes_deterministically():
    rep = classify(family_h_metric(parse("t^3")), 2, t_grid(1, 2, 5))
    import json

    a = json.dumps(rep.to_dict(), indent=2)
    rep2 = classify(family_h_metric(parse("t^3")), 2, t_grid(1, 2, 5))
    b = json.dumps(rep2.to_dict(), indent=2)
    assert a == b


def test_relative_spread_definition():
    assert relative_spread([1.0, 1.0, 1.0]) == 0.0
    assert relative_spread([1.0, 2.0]) == pytest.approx(1.0 / 1.5)
    assert relative_spread([0.0, 0.0]) == 0.0
    assert relative_spread([None, 5.0]) == 0.0
    assert relative_spread([None, None]) is None


def test_grid_points_sorted_and_pinned():
    grid = GridSpec((GridAxis(1, 0, 2), None, GridAxis(0, 1, 2)))
    pts = grid.points()
    assert pts == ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0))


def test_bad_points_excluded_with_their_own_reasons():
    # log(0) is undefined at x = 0, and g_tt = exp(2 exp(9)) overflows at x = 3
    g = family_f_metric(parse("exp(x^2) + log(x)"))
    rep = classify(g, 1, SampleSet.from_grid(GridSpec((None, GridAxis(0.0, 3.0, 3), None))))
    want = [
        ((0.0, 0.0, 0.0), "cannot evaluate the metric (DomainError): log of nonpositive value 0.0 in 'log(x)'"),
        ((0.0, 3.0, 0.0), "cannot evaluate the metric (OverflowError): math range error"),
    ]
    assert [(e.point, e.reason) for e in rep.exclusions] == want
    for point, reason in want:
        alone = classify(g, 1, SampleSet.from_points([point]))
        assert [e.reason for e in alone.exclusions] == [reason]


# --- the order tests, against a per-order reference ---------------------------------


def _sign_reference(flat):
    """One order's sign structure, (status, notes, live columns), read on its
    own: vacuous below 1e-10, a zero relative to the order's largest |entry|."""
    scale = float(np.abs(flat).max(initial=0.0))
    if scale < 1e-10:
        return "vacuous", ("all entries vanish at this order",), None
    zero = np.abs(flat) <= 1e-9 * scale
    all_zero = zero.all(axis=0)
    if (zero.any(axis=0) & ~all_zero).any():
        return "fail", ("an entry vanishes at some sample points only",), None
    live = np.flatnonzero(~all_zero)
    signs = np.sign(flat[:, live])
    if not (signs == signs[:1]).all():
        return "fail", ("an entry changes sign across sample points",), None
    return "pass", (), live


def _q_condition_reference(t, tol):
    """The CH test of one order, column by column, with each column's
    X-multiplicity counted on its index tuple."""
    flat = t.components.reshape(len(t.components), -1)
    status, notes, live = _sign_reference(flat)
    if status != "pass":
        return status, notes
    xmult = [sum(s[i] == X for s, i in zip(t.supports, index)) for index in itertools.product(*map(range, t.shape))]
    groups = {}
    for c in live:
        groups.setdefault(xmult[c], []).append(c)
    for mult, comps in sorted(groups.items()):
        ref = max(comps, key=lambda c: float(np.abs(flat[:, c]).min()))
        for c in comps:
            spread = relative_spread(flat[:, c] / flat[:, ref])
            if c != ref and spread > tol:
                return "fail", (f"entries of X-multiplicity {mult} have point-dependent ratio (spread {spread:.2e})",)
    if len(groups) > 2:
        return "pass", (
            f"{len(groups)} distinct X-multiplicities at this order; "
            "two-parameter matching not fully determined, raw entries exposed",
        )
    return "pass", ()


def _scaled_reference(t, psi, tol):
    """The SCH test of one order k >= 1, column by column."""
    k = t.rank - 4
    flat = t.components.reshape(len(t.components), -1)
    status, notes, live = _sign_reference(flat)
    if status != "pass":
        return status, notes
    for c in live:
        spread = relative_spread(np.abs(flat[:, c] / psi ** ((k + 2) / 2.0)))
        if spread > tol:
            return "fail", (f"a scaled order-{k} entry is nonconstant (spread {spread:.2e})",)
    return "pass", ()


def _representative_reference(t, psi):
    """The first column whose largest |entry| is within 1e-9 of the order's, over psi^((k+2)/2)."""
    flat = t.components.reshape(len(t.components), -1)
    top = np.abs(flat).max(axis=0)
    c = next(c for c in range(len(top)) if top[c] >= (1 - 1e-9) * top.max())
    return flat[:, c] / psi ** ((t.rank - 2) / 2.0)


KINDS = ("pass", "scaled", "vacuous", "vanishes at some points", "sign change", "ratio", "tie")


def _random_orders(seed):
    """Seven orders k = 0..6 in a seeded order of KINDS, five samples each, on
    the box (all,) * 4 + ((T, X),) * k, then CH_0's entry alone at
    (T, X, X, T) as an eighth tensor.  A live entry is a signed constant
    times psi^((k+2)/2) times base^(its X-multiplicity), with base = 1 for
    "pass" and "tie", so only those pass the scaled test; each other kind
    breaks one test."""
    from curvhom.tensor import AXES, TensorAtPoint

    rng = np.random.default_rng(seed)
    psi, base = rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 5)
    tensors = []
    for k, kind in enumerate(rng.permutation(KINDS)):
        supports = (AXES,) * 4 + ((T, X),) * k
        stack = np.zeros((5,) + tuple(map(len, supports)))
        flat = stack.reshape(5, -1)
        xmult = [sum(s[i] == X for s, i in zip(supports, index)) for index in itertools.product(*map(range, stack.shape[1:]))]
        live = rng.choice(flat.shape[1], size=8, replace=False)
        b = 1.0 if kind in ("pass", "tie") else base
        for c in live:
            flat[:, c] = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 1) * psi ** ((k + 2) / 2.0) * b ** xmult[c]
        if kind == "vacuous":
            stack[...] = 1e-12 * rng.normal(size=stack.shape)
        elif kind == "vanishes at some points":
            flat[2, live[0]] = 0.0
        elif kind == "sign change":
            flat[3, live[1]] *= -1.0
        elif kind == "ratio":
            flat[:, live[2]] *= 1.0 + 0.1 * np.arange(5)
        elif kind == "tie":  # the order's largest column, and a later one a few ulps above it, of the other sign
            big = live[np.argmax(np.abs(flat[:, live]).max(axis=0))]
            flat[:, min(set(range(flat.shape[1])) - set(live) - {big})] = -flat[:, big] * (1 + 4e-16)
        tensors.append(TensorAtPoint(4 + k, stack, supports))
    entry = np.zeros((5, 3, 3, 3, 3))
    entry[:, T, X, X, T] = rng.choice([-1.0, 1.0]) * psi * (1.0 if seed % 3 else np.sign(base - 1.0))  # one sign, or both
    tensors.append(TensorAtPoint(4, entry))
    return psi, tensors


@pytest.mark.parametrize("seed", range(12))
def test_one_pass_order_tests_equal_the_per_order_reference(seed):
    from curvhom.classify import _order_tests

    from curvhom.geometry import CurvatureSequence

    psi, tensors = _random_orders(seed)
    got = _order_tests(CurvatureSequence.of(tensors[:-1]), 1e-6, psi=psi, entry=tensors[-1].components[:, T, X, X, T])
    for i, t in enumerate(tensors):
        flat = t.components.reshape(5, -1)
        assert got.scale[i] == np.abs(flat).max()
        assert got.ch[i] == _q_condition_reference(t, 1e-6)
        sign = _sign_reference(flat)[:2]
        if t.rank == 4:
            assert got.sch[i] == sign
        else:
            assert got.sch[i] == _scaled_reference(t, psi, 1e-6)
            if sign[0] != "vacuous":
                np.testing.assert_array_equal(got.scaled[:, i], _representative_reference(t, psi))
    # each test runs only where it is asked for
    alone = _order_tests(CurvatureSequence.of(tensors), 1e-6, ratios=False)
    assert alone.ch == alone.sch == [_sign_reference(t.components.reshape(5, -1))[:2] for t in tensors]
    assert alone.scaled is None


def test_order_tests_keep_groups_apart_at_high_multiplicity():
    # a tail of twelve X slots lifts X-multiplicities to 16: groups keyed by
    # (order, multiplicity) must not run into the next order's
    from curvhom.classify import _order_tests
    from curvhom.geometry import CurvatureSequence
    from curvhom.tensor import AXES, TensorAtPoint

    p = np.linspace(1.0, 2.0, 5)
    low, high = np.zeros((5,) + (3,) * 4), np.zeros((5,) + (3,) * 4 + (1,) * 12)
    low[:, T, T, T, T], low[:, Y, T, T, Y] = p, 2 * p  # multiplicity 0, one ratio
    high[:, X, X, X, X] = (p**3).reshape(5, *(1,) * 12)  # multiplicity 16, its own group
    tensors = [TensorAtPoint(16, high, (AXES,) * 4 + ((X,),) * 12), TensorAtPoint(4, low)]
    got = _order_tests(CurvatureSequence.of(tensors), 1e-6)
    assert got.ch == [_q_condition_reference(t, 1e-6) for t in tensors] == [("pass", ()), ("pass", ())]


def test_random_orders_cover_every_outcome():
    from curvhom.classify import _order_tests
    from curvhom.geometry import CurvatureSequence

    statuses, notes = set(), []
    for seed in range(12):
        psi, tensors = _random_orders(seed)
        got = _order_tests(CurvatureSequence.of(tensors[:-1]), 1e-6, psi=psi, entry=tensors[-1].components[:, T, X, X, T])
        statuses |= {s for s, _ in got.ch + got.sch}
        notes += [n for _, found in got.ch + got.sch for n in found]
    assert statuses == {"pass", "fail", "vacuous"}
    for start in (
        "all entries vanish", "an entry vanishes at some", "an entry changes sign", "entries of X-multiplicity",
        "a scaled order-", "3 distinct X-multiplicities", "4 distinct X-multiplicities",
    ):
        assert any(n.startswith(start) for n in notes), start


def _multiplicity_stack(rank, bend=None):
    """Five samples of a rank-`rank` stack whose live entries have X-multiplicity
    0 to 3, two or three per multiplicity, each a constant times its group's
    point-dependent profile; `bend` = (index, power) makes one ratio point-dependent."""
    p = np.linspace(1.0, 2.0, 5)
    live = {
        (T, T, T, T): 1.5, (Y, T, T, Y): -2.0,
        (T, X, T, T): 0.5, (T, Y, X, Y): 3.0, (X, T, Y, T): -1.25,
        (X, X, T, T): 2.0, (T, X, Y, X): -0.75,
        (X, X, X, T): 4.0, (X, Y, X, X): 1.1, (X, X, X, Y): -0.3,
    }
    pad = (Y,) * (rank - 4)  # leading, so that X also sits in the derivative slots
    stack = np.zeros((5,) + (3,) * rank)
    for index, c in live.items():
        stack[(slice(None),) + pad + index] = c * p ** (1 + index.count(X))
    if bend is not None:
        index, power = bend
        stack[(slice(None),) + pad + index] *= p**power
    return stack


@pytest.mark.parametrize("rank", [4, 6])
@pytest.mark.parametrize(
    "bend, status",
    [(None, "pass"), (((T, Y, X, Y), 0.5), "fail"), (((X, X, X, Y), 1e-9), "pass")],
    ids=["constant ratios", "point-dependent ratio", "ratio within tol"],
)
def test_q_condition_matches_brute_force_multiplicities(rank, bend, status):
    from curvhom.classify import _order_tests
    from curvhom.geometry import CurvatureSequence
    from curvhom.tensor import TensorAtPoint

    t = TensorAtPoint(rank, _multiplicity_stack(rank, bend))
    got = _order_tests(CurvatureSequence.of([t]), 1e-6).ch[0]
    assert got == _q_condition_reference(t, 1e-6)
    assert got[0] == status
    if status == "pass":
        assert got[1] == (
            "4 distinct X-multiplicities at this order; two-parameter matching not fully determined, raw entries exposed",
        )
    else:
        assert got[1][0].startswith("entries of X-multiplicity 1 have point-dependent ratio")


# --- nabla^k R on a frame, expanded from the pulled-back g and nabla^k P ----------


def _unit_lambda(fn, p):
    return 1.0


@pytest.mark.parametrize(
    "metric, profile, coord, frame, scale",
    [
        (family_f_metric, "exp(x)", X, adapted_frame_f, _unit_lambda),
        (family_f_metric, "1/x", X, adapted_frame_f, _unit_lambda),
        (family_h_metric, "t^3", T, adapted_frame_h, _unit_lambda),
        (family_h_metric, "t^3", T, adapted_frame_h, scaling_lambda_h),
        (family_h_metric, "exp(t) + t^4", T, adapted_frame_h, _unit_lambda),
        (family_h_metric, "exp(t) + t^4", T, adapted_frame_h, scaling_lambda_h),
    ],
    ids=["f exp(x)", "f 1/x", "h t^3 unit", "h t^3 sch", "h exp unit", "h exp sch"],
)
def test_frame_expansion_equals_the_pullback_of_r(metric, profile, coord, frame, scale):
    """The unit-frame sequence at the mask's points, rescaled by lam, is R,
    ..., nabla^6 R pulled back to the adapted frame with that lam."""
    from curvhom.classify import _rescaled, _unit_frame_sequence
    from curvhom.geometry import nabla_riemann_sequence
    from curvhom.tensor import TensorAtPoint, pullback

    fn = parse(profile)
    g = metric(fn)
    pts = np.zeros((3, 3))
    pts[:, coord] = [0.6, 1.1, 1.7]
    mask = np.array([True, False, True])
    lam = scale(fn, pts[mask])
    f = frame(fn, pts[mask], lam)
    got = _rescaled(_unit_frame_sequence(g, 6, pts)[0].at(mask), lam)
    want = [pullback(TensorAtPoint(t.rank, t.components[mask]), f).components for t in nabla_riemann_sequence(g, pts, 6)]
    assert len(got) == len(want) == 7
    for a, b in zip((t.dense() for t in got), want):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13 * np.abs(b).max())


def _relative_spread_reference(vals):
    """relative_spread with np.median, one column at a time."""
    if np.abs(vals).max() < 1e-9:
        return 0.0
    return float((vals.max() - vals.min()) / max(abs(float(np.median(vals))), 1e-9))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, in both
@pytest.mark.parametrize("npts", [1, 2, 3, 4, 7])
def test_spreads_match_np_median_per_column(npts):
    from curvhom.classify import _spreads

    rng = np.random.default_rng(npts)
    cols = rng.normal(size=(npts, 40)) * 10.0 ** rng.integers(-12, 3, size=40)
    cols[:, 0] = 2.5  # constant
    cols[:, 1] = 1e-10 * rng.normal(size=npts)  # below the floor
    cols[:, 2] = -1.0 - np.arange(npts)  # negative median
    cols[:, 3] = np.nan
    cols[0, 4] = np.nan
    cols[:, 5] = np.inf
    want = [_relative_spread_reference(c) for c in cols.T]
    assert [relative_spread(c) for c in cols.T] == pytest.approx(want, nan_ok=True, rel=0, abs=0)
    assert _spreads(cols).tolist() == pytest.approx(want, nan_ok=True, rel=0, abs=0)  # one sort for every column


# the survey panel of scripts/survey_families.py, on five points
SURVEY_PANEL = [
    ("f", "x", X, 0.1, 1.0), ("f", "x^2", X, 0.1, 1.0), ("f", "exp(x)", X, 0.0, 1.0),
    ("f", "2.5615528128088303*log(x)", X, 0.3, 1.5), ("h", "t^2", T, 0.0, 1.0), ("h", "t^3", T, 1.0, 2.0),
    ("h", "exp(t)", T, 0.0, 1.0), ("h", "t^5", T, 1.0, 2.0),
]


@pytest.mark.parametrize("family, profile, coord, lo, hi", SURVEY_PANEL, ids=[f"{f} {p}" for f, p, *_ in SURVEY_PANEL])
def test_classify_at_r_and_r_plus_1_agree_on_every_shared_verdict(family, profile, coord, lo, hi):
    from curvhom.classify import FAMILIES

    g = FAMILIES[family].metric(parse(profile))
    grid = x_grid(lo, hi, 5) if coord == X else t_grid(lo, hi, 5)
    reports = [classify(g, r, grid) for r in range(6)]
    for low, high in zip(reports, reports[1:]):
        shared = {v.name: v for v in low.verdicts}
        assert shared == {v.name: v for v in high.verdicts if v.name in shared}
        for s in low.scaled_entries:
            np.testing.assert_allclose(high.series(s.name).values, s.values, rtol=1e-12, atol=0)


@pytest.mark.parametrize("metric, profile, grid", [
    (family_f_metric, "exp(x) + x^3", x_grid(-1.0, 1.0, 7)), (family_h_metric, "t^4 + t^2", t_grid(-1.0, 1.0, 5)),
])
def test_family_samples_read_the_metric_alone(metric, profile, grid):
    """A family metric whose spec names a profile that cannot be evaluated
    anywhere gives the same samples: only the metric's entries are read."""
    from curvhom.classify import family_samples
    from curvhom.expr import Call, Num
    from curvhom.families import FamilySpec
    from curvhom.geometry import MetricField

    g = metric(parse(profile))
    blind = MetricField(g.entries, FamilySpec(g.family.family, Call("log", Num(-1.0))))
    pts = np.asarray(grid.points)
    want, got = family_samples(g, 3, pts), family_samples(blind, 3, pts)
    for name in ("hyp", "sch_hyp", "ok", "sch"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    for name in ("adapted", "aligned"):
        assert getattr(got, name).tails == getattr(want, name).tails
        np.testing.assert_array_equal(getattr(got, name).entries, getattr(want, name).entries)
    assert got.values.keys() == want.values.keys()
    for name, (mask, values) in want.values.items():
        np.testing.assert_array_equal(got.values[name][0], mask)
        np.testing.assert_array_equal(got.values[name][1], values)


def test_sch_sequence_is_the_pullback_to_the_scaled_frame():
    """On h = t^4 + t^2, h''' vanishes at t = 0 only: the SCH points are a
    strict subset of the hypothesis points.  There, the lam-rescaled unit
    sequence is R, ..., nabla^4 R pulled back to adapted_frame_h with
    scaling_lambda_h."""
    from curvhom.classify import family_samples
    from curvhom.geometry import nabla_riemann_sequence
    from curvhom.tensor import TensorAtPoint, pullback

    h = parse("t^4 + t^2")
    pts = np.asarray(t_grid(-1.0, 1.0, 5).points)
    s = family_samples(family_h_metric(h), 4, pts)
    assert s.ok.all() and s.sch.tolist() == [True, True, False, True, True]
    frame = adapted_frame_h(h, pts[s.sch], scaling_lambda_h(h, pts[s.sch]))
    want = [pullback(TensorAtPoint(t.rank, t.components[s.sch]), frame).components
            for t in nabla_riemann_sequence(family_h_metric(h), pts, 4)]
    assert len(s.aligned) == len(want) == 5
    for a, b in zip((t.dense() for t in s.aligned), want):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13 * np.abs(b).max())


def test_an_oversized_grid_is_refused_before_any_point_is_built(monkeypatch):
    def fail(axis):
        raise AssertionError("the grid's values were built")

    monkeypatch.setattr(GridAxis, "values", fail)
    grid = GridSpec((GridAxis(0.0, 1.0, 10**4), GridAxis(0.0, 1.0, 10**4), GridAxis(0.0, 1.0, 10**4)))
    with pytest.raises(ValueError, match="^the grid has 1000000000000 points, more than the 207126 "):
        grid.points()
