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


def _q_condition_reference(stack, tol):
    """_q_condition with each component's X-multiplicity counted over every
    index tuple of the stack, in flattened order."""
    from curvhom.classify import _sign_structure

    entries = _sign_structure(stack)
    if entries.status != "pass":
        return entries.status, list(entries.notes)
    flat, live = entries.flat, entries.live
    xmult = [index.count(X) for index in itertools.product(range(3), repeat=stack.ndim - 1)]
    groups = {}
    for c in live:
        groups.setdefault(xmult[c], []).append(c)
    notes = []
    for mult, comps in sorted(groups.items()):
        ref = max(comps, key=lambda c: float(np.abs(flat[:, c]).min()))
        for c in comps:
            spread = relative_spread(flat[:, c] / flat[:, ref])
            if c != ref and spread > tol:
                return "fail", [f"entries of X-multiplicity {mult} have point-dependent ratio (spread {spread:.2e})"]
    if len(groups) > 2:
        notes.append(
            f"{len(groups)} distinct X-multiplicities at this order; "
            "two-parameter matching not fully determined, raw entries exposed"
        )
    return "pass", notes


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
    from curvhom.classify import _q_condition, _sign_structure

    stack = _multiplicity_stack(rank, bend)
    got = _q_condition(_sign_structure(stack), 1e-6)
    assert (got.status, got.notes) == _q_condition_reference(stack, 1e-6)
    assert got.status == status
    if status == "pass":
        assert got.notes == [
            "4 distinct X-multiplicities at this order; two-parameter matching not fully determined, raw entries exposed"
        ]
    else:
        assert got.notes[0].startswith("entries of X-multiplicity 1 have point-dependent ratio")


# --- nabla^k R on a frame, expanded from the pulled-back g and nabla^k P ----------


def _unit_frame_f(fn, p):
    return adapted_frame_f(fn, p, 1.0)


def _unit_frame_h(fn, p):
    return adapted_frame_h(fn, p, 1.0)


def _sch_frame_h(fn, p):
    return adapted_frame_h(fn, p, scaling_lambda_h(fn, p))


@pytest.mark.parametrize(
    "metric, profile, coord, frame",
    [
        (family_f_metric, "exp(x)", X, _unit_frame_f),
        (family_f_metric, "1/x", X, _unit_frame_f),
        (family_h_metric, "t^3", T, _unit_frame_h),
        (family_h_metric, "t^3", T, _sch_frame_h),
        (family_h_metric, "exp(t) + t^4", T, _unit_frame_h),
        (family_h_metric, "exp(t) + t^4", T, _sch_frame_h),
    ],
    ids=["f exp(x)", "f 1/x", "h t^3 unit", "h t^3 sch", "h exp unit", "h exp sch"],
)
def test_frame_expansion_equals_the_pullback_of_r(metric, profile, coord, frame):
    from curvhom.classify import _pulled_back
    from curvhom.geometry import nabla_riemann_sequence, nabla_schouten_sequence
    from curvhom.tensor import TensorAtPoint, pullback

    fn = parse(profile)
    g = metric(fn)
    pts = np.zeros((3, 3))
    pts[:, coord] = [0.6, 1.1, 1.7]
    mask = np.array([True, False, True])
    f = frame(fn, pts[mask])
    got = _pulled_back(*nabla_schouten_sequence(g, pts, 6), mask, f)
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
    from curvhom.classify import _first_spread_over

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
    for tol in [1e-12, 1e-6, 0.5, 10.0]:
        over = [i for i, w in enumerate(want) if w > tol]
        got = _first_spread_over(cols, tol)
        assert got == (want[over[0]] if over else None)
        for i in range(cols.shape[1]):  # each column alone, so every one is compared
            got = _first_spread_over(cols[:, [i]], tol)
            assert got == (want[i] if want[i] > tol else None)
