"""Acceptance suite: one test per criterion, one printed line each.

Tolerances are pinned here and nowhere looser:
  closed-form equivalence   1e-8 relative / 1e-10 absolute on zeros,
                            metrics unit-rescaled per point
  identity suite            1e-8
  unit-curvature entries    |entry| = 1 +- 1e-10
  scaling identities        1e-10 relative
  constancy of invariants   1e-9 (homogeneous controls), 1e-8 (scaling law)
"""

import math
import time

import numpy as np
import pytest

from curvhom.classify import GridAxis, GridSpec, classify
from curvhom.expr import parse
from curvhom.families import (
    delta_derivatives,
    family_f_metric,
    family_f_oracle,
    family_h_metric,
    family_h_oracle,
)
from curvhom.geometry import nabla_riemann_sequence
from curvhom.models import (
    ModelSpace,
    adapted_frame_f,
    adapted_frame_h,
    build_model,
    ch0_lambda_f,
    ch0_lambda_h,
    check_automorphism_order0,
    check_automorphism_order1,
    scaling_lambda_h,
)
from curvhom.tensor import Frame

from .test_geometry import (
    curvature_symmetry_deviation,
    nabla_g_deviation,
    random_polynomial_metric,
    second_bianchi_deviation,
)
from .test_models import order0_group_frame, order1_group_frame

T, X, Y = 0, 1, 2

REL = 1e-8
ABS_ZERO = 1e-10

F_SET = ["x", "x^2", "exp(x)", "x^3 - x"]
H_SET = ["t^2", "t^3", "exp(t)", "t^5"]
F_GRID = [(0.0, xv, 0.0) for xv in np.linspace(0.1, 1.0, 9)]
H_GRID = [(tv, 0.0, 0.0) for tv in np.linspace(1.0, 2.0, 9)]

SQRT17 = (1 + math.sqrt(17)) / 2  # a with a^2 - a = 4, so delta = 4/x^2


def _ok(name, detail=""):
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


def _equivalence_run(profiles, grid, kmax, metric_of, oracle_of):
    worst_rel = worst_abs = 0.0
    for text in profiles:
        fn = parse(text)
        metric = metric_of(fn)
        for p in grid:
            gscale = max(1.0, float(np.abs(metric.component_matrix(p)).max()))
            seq = nabla_riemann_sequence(metric.scaled(1.0 / gscale), p, kmax)
            for k in range(kmax + 1):
                oracle = oracle_of(fn, p, k).components / gscale
                nz = oracle != 0.0
                if nz.any():
                    worst_rel = max(
                        worst_rel,
                        float(np.abs((seq[k].components[nz] - oracle[nz]) / oracle[nz]).max()),
                    )
                if (~nz).any():
                    worst_abs = max(worst_abs, float(np.abs(seq[k].components[~nz]).max()))
    return worst_rel, worst_abs


def test_criterion_1_f_family_closed_form_equivalence():
    start = time.perf_counter()
    worst_rel, worst_abs = _equivalence_run(F_SET, F_GRID, 5, family_f_metric, family_f_oracle)
    elapsed = time.perf_counter() - start
    assert worst_rel <= REL
    assert worst_abs <= ABS_ZERO
    assert elapsed < 5.0
    _ok(
        "criterion 1 (f-family equivalence, k <= 5)",
        f"max rel {worst_rel:.2e}, max abs-on-zeros {worst_abs:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_h_family_closed_form_equivalence():
    start = time.perf_counter()
    worst_rel, worst_abs = _equivalence_run(H_SET, H_GRID, 2, family_h_metric, family_h_oracle)
    elapsed = time.perf_counter() - start
    assert worst_rel <= REL
    assert worst_abs <= ABS_ZERO
    assert elapsed < 2.0
    _ok(
        "criterion 2 (h-family equivalence, k <= 2)",
        f"max rel {worst_rel:.2e}, max abs-on-zeros {worst_abs:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_curvature_identity_suite():
    rng = np.random.default_rng(17)
    metrics = [family_f_metric(parse("exp(x)")), family_h_metric(parse("t^3"))]
    metrics += [random_polynomial_metric(rng) for _ in range(20)]
    worst = 0.0
    for g in metrics:
        p = tuple(rng.uniform(0.25, 0.55, size=3))
        gscale = max(1.0, float(np.abs(g.component_matrix(p)).max()))
        gs = g.scaled(1.0 / gscale)
        seq = nabla_riemann_sequence(gs, p, 1)
        worst = max(worst, curvature_symmetry_deviation(seq[0]))
        worst = max(worst, second_bianchi_deviation(seq[1]))
        worst = max(worst, nabla_g_deviation(gs, p))
    assert worst <= 1e-8
    _ok("criterion 3 (identity suite on 22 metrics)", f"max deviation {worst:.2e}")


def test_criterion_4_unit_curvature_normalization():
    worst = 0.0
    for text in F_SET:
        fn = parse(text)
        g = family_f_metric(fn)
        for p in F_GRID:
            if abs(delta_derivatives(fn, p, 0)[0]) < 1e-8:
                continue
            model = build_model(g, p, 0, adapted_frame_f(fn, p, ch0_lambda_f(fn, p)))
            worst = max(worst, abs(abs(model.tensor(0).components[T, X, X, T]) - 1.0))
    for text in H_SET:
        fn = parse(text)
        g = family_h_metric(fn)
        for p in H_GRID:
            model = build_model(g, p, 0, adapted_frame_h(fn, p, ch0_lambda_h(fn, p)))
            worst = max(worst, abs(abs(model.tensor(0).components[T, X, X, T]) - 1.0))
    assert worst <= 1e-10
    _ok("criterion 4 (unit curvature normalization)", f"max | |entry| - 1 | = {worst:.2e}")


def test_criterion_5_f_exponential_classification():
    start = time.perf_counter()
    samples = GridSpec((None, GridAxis(0.0, 1.0, 9), None)).points()
    report = classify(family_f_metric(parse("exp(x)")), 5, samples)
    elapsed = time.perf_counter() - start
    for k in range(6):
        assert report.verdict(f"CH_{k}(1,3)").status == "pass"
    xi = report.series("xi")
    assert xi.spread > 0.5
    assert xi.values[0] == pytest.approx(9.0, rel=REL)
    assert xi.values[-1] == pytest.approx((math.e + 2 * math.e**2) ** 2, rel=REL)
    assert report.verdict("SCH_1(1,3)").status == "fail"
    assert (report.series("sch_ratio").spread or 0.0) > 0.2
    assert elapsed < 5.0
    _ok(
        "criterion 5 (f = exp(x): per-order pass, simultaneous fail)",
        f"xi 9 -> {xi.values[-1]:.1f}, ratio spread {report.series('sch_ratio').spread:.2f}, {elapsed:.2f}s",
    )


def test_criterion_6_h_cubic_scaling_identities():
    start = time.perf_counter()
    fn = parse("t^3")
    g = family_h_metric(fn)
    worst = 0.0
    sign0 = sign1 = None
    for p in H_GRID:
        frame = adapted_frame_h(fn, p, scaling_lambda_h(fn, p))
        model = build_model(g, p, 1, frame)
        e0 = float(model.tensor(0).components[T, X, X, T])
        e1 = float(model.tensor(1).components[T, X, X, T, T])
        psi = (6.0 / (6.0 * p[0])) ** 2  # (h'''/h'')^2
        worst = max(worst, abs(abs(e0) - psi) / psi)
        worst = max(worst, abs(abs(e1) - psi**1.5) / psi**1.5)
        sign0 = sign0 or np.sign(e0)
        sign1 = sign1 or np.sign(e1)
        assert np.sign(e0) == sign0 and np.sign(e1) == sign1
    assert worst <= 1e-10

    samples = GridSpec((GridAxis(1.0, 2.0, 9), None, None)).points()
    report = classify(g, 2, samples)
    elapsed = time.perf_counter() - start
    assert report.verdict("SCH_1(1,3)").status == "pass"
    xi = report.series("xi")
    assert xi.values[0] == pytest.approx(1.0, rel=1e-9)
    assert xi.values[-1] == pytest.approx(0.25, rel=1e-9)
    assert xi.spread > 0.0
    xx = report.series("xi_X")
    assert all(v == pytest.approx(0.5, abs=1e-9) for v in xx.values)
    assert elapsed < 2.0
    _ok(
        "criterion 6 (h = t^3: aligned-frame identities and invariants)",
        f"identity dev {worst:.2e}, xi 1 -> 0.25, xi_X = 0.5, {elapsed:.2f}s",
    )


def test_criterion_7_homogeneous_controls():
    samples = GridSpec((GridAxis(0.0, 1.0, 9), None, None)).points()
    report = classify(family_h_metric(parse("exp(t)")), 2, samples)
    worst = 0.0
    for series in list(report.invariants) + [report.psi] + list(report.scaled_entries):
        spread = series.spread
        assert spread is not None and spread <= 1e-9, series.name
        worst = max(worst, spread)

    # delta = 4/x^2 realized by f = a log(x) with a^2 - a = 4; the derivative
    # ladder then closes: delta^(k) = c_k delta^{(k+2)/2} with constant c_k
    fn = parse(f"{SQRT17!r}*log(x)")
    expected = [1.0, -1.0, 1.5, -3.0]  # (-1)^k (k+1)! / 2^k
    worst_law = 0.0
    for xv in np.linspace(0.3, 1.5, 7):
        d = delta_derivatives(fn, (0.0, float(xv), 0.0), 3)
        assert d[0] == pytest.approx(4.0 / xv**2, rel=1e-12)
        for k in range(4):
            c_k = d[k] / d[0] ** ((k + 2) / 2)
            worst_law = max(worst_law, abs(c_k - expected[k]))
    assert worst_law <= 1e-8
    _ok(
        "criterion 7 (homogeneous controls)",
        f"exp(t) invariant spread {worst:.2e}, scaling-law dev {worst_law:.2e}",
    )


def _build_canonical_models():
    f = parse("x^2")
    pf = (0.0, 1.0, 0.0)
    gf = family_f_metric(f)
    mf = build_model(gf, pf, 0, adapted_frame_f(f, pf, ch0_lambda_f(f, pf)))
    model0 = ModelSpace(0, mf.phi, (mf.tensor(0),))

    h = parse("t^3")
    ph = (1.0, 0.0, 0.0)
    gh = family_h_metric(h)
    model1 = build_model(gh, ph, 1, adapted_frame_h(h, ph, scaling_lambda_h(h, ph)))
    return model0, model1


def _rejected_order0_frame(rng):
    kind = rng.integers(0, 4)
    a1, a4 = rng.choice([-1.0, 1.0], size=2)
    a3 = float(rng.normal())
    if kind == 0:  # X scaling off the unit circle
        return order0_group_frame(a1, float(a4 * rng.uniform(1.05, 3.0)), a3)
    if kind == 1:  # metric-violating Y component of FT
        frame = order0_group_frame(a1, a4, a3)
        m = frame.matrix.copy()
        m[Y, 0] += float(rng.uniform(0.1, 2.0)) * (1.0 if a3 == 0 else np.sign(a3))
        return Frame(m)
    if kind == 2:  # X component in FT breaks phi(FT, FY) = 0
        m = order0_group_frame(a1, a4, 0.0).matrix.copy()
        m[X, 0] = float(rng.uniform(0.1, 1.5))
        return Frame(m)
    return Frame(order0_group_frame(a1, a4, a3).matrix[:, [0, 2, 1]])  # X <-> Y swap


def _rejected_order1_frame(rng):
    kind = rng.integers(0, 4)
    b2 = float(rng.choice([-1.0, 1.0]))
    if kind == 0:  # time flip changes the odd-order entry
        return Frame(np.diag([-1.0, b2, 1.0 / b2]))
    if kind == 1:  # X scaling off the unit circle
        s = float(rng.uniform(1.05, 3.0))
        return Frame(np.diag([1.0, b2 * s, 1.0 / (b2 * s)]))
    m = np.diag([1.0, b2, 1.0 / b2])
    if kind == 2:  # shear FX = b2 X + b3 Y breaks phi(FX, FX) = 0
        m[Y, 1] = float(rng.uniform(0.1, 2.0))
        return Frame(m)
    m[Y, 0] = float(rng.uniform(0.1, 2.0))  # FT = T + b1 Y breaks phi(FT, FX) = 0
    return Frame(m)


def test_criterion_8_isomorphism_group_membership():
    model0, model1 = _build_canonical_models()
    rng = np.random.default_rng(2024)
    wrong = 0
    for _ in range(1000):
        a1, a4 = rng.choice([-1.0, 1.0], size=2)
        frame = order0_group_frame(a1, a4, a3=float(rng.normal(scale=1.5)))
        if not check_automorphism_order0(frame, model0).accepted:
            wrong += 1
    for _ in range(1000):
        if check_automorphism_order0(_rejected_order0_frame(rng), model0).accepted:
            wrong += 1
    for _ in range(1000):
        frame = order1_group_frame(float(rng.choice([-1.0, 1.0])))
        if not check_automorphism_order1(frame, model1).accepted:
            wrong += 1
    for _ in range(1000):
        if check_automorphism_order1(_rejected_order1_frame(rng), model1).accepted:
            wrong += 1
    assert wrong == 0
    _ok("criterion 8 (4 x 1000 frame classifications)", "0 misclassifications")
