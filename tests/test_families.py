import numpy as np
import pytest

from curvhom.expr import parse
from curvhom.families import (
    FamilySpec,
    delta_derivatives,
    family_f_metric,
    family_f_oracle,
    family_f_oracles,
    family_h_metric,
    family_h_oracle,
    family_h_oracles,
    profile_derivatives,
)
from curvhom.geometry import nabla_riemann_sequence

T, X, Y = 0, 1, 2


def test_f_metric_constant_profile_is_constant_lorentzian():
    g = family_f_metric(parse("0"))
    m = g.component_matrix((0.0, 0.0, 0.0))
    np.testing.assert_allclose(m, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_f_metric_entry_is_exp_of_twice_profile():
    g = family_f_metric(parse("x^2"))
    assert g.component_matrix((0.0, 1.2, 0.0))[T, T] == pytest.approx(np.exp(2 * 1.44))


def test_f_metric_rejects_wrong_variables():
    with pytest.raises(ValueError):
        family_f_metric(parse("t + x"))
    with pytest.raises(ValueError):
        family_h_metric(parse("t*y"))


def test_h_metric_entries():
    g = family_h_metric(parse("t^3"))
    m = g.component_matrix((1.0, 0.0, 0.0))
    assert m[T, T] == 1.0
    assert m[X, Y] == 1.0
    assert m[X, X] == pytest.approx(-2.0)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("g")
    with pytest.raises(ValueError):
        FamilySpec("f")


def test_delta_derivatives_exponential():
    # delta = e^x + e^{2x}; delta^(k)(0) = 1 + 2^k
    d = delta_derivatives(parse("exp(x)"), (0.0, 0.0, 0.0), 5)
    assert d == pytest.approx([1 + 2**k for k in range(6)])


def test_profile_derivatives_cubic():
    d = profile_derivatives(parse("t^3"), (2.0, 0.0, 0.0), 4)
    assert d == pytest.approx([8.0, 12.0, 12.0, 6.0, 0.0])


def test_f_oracle_values():
    t0 = family_f_oracle(parse("x^2"), (0.0, 1.0, 0.0), 0)
    assert t0.components[X, T, T, X] == pytest.approx(-np.exp(2.0) * 6.0)
    assert t0.components[T, X, X, T] == pytest.approx(-np.exp(2.0) * 6.0)
    assert t0.components[T, X, T, X] == pytest.approx(np.exp(2.0) * 6.0)

    t2 = family_f_oracle(parse("exp(x)"), (0.0, 0.0, 0.0), 2)
    assert t2.components[X, T, T, X, X, X] == pytest.approx(-np.exp(2.0) * 5.0)

    assert np.abs(family_f_oracle(parse("0"), (0.0, 0.0, 0.0), 3).components).max() == 0.0


def test_h_oracle_values():
    k0 = family_h_oracle(parse("t^3"), (2.0, 0.0, 0.0), 0)
    assert k0.components[T, X, X, T] == pytest.approx(12.0)

    k2 = family_h_oracle(parse("t^3"), (2.0, 0.0, 0.0), 2)
    assert k2.components[T, X, X, T, T, T] == pytest.approx(0.0)
    assert k2.components[T, X, X, T, X, X] == pytest.approx(-72.0)

    assert np.abs(family_h_oracle(parse("0"), (1.0, 0.0, 0.0), 2).components).max() == 0.0


def test_h_oracle_refuses_order_beyond_two():
    with pytest.raises(ValueError):
        family_h_oracle(parse("t^3"), (1.0, 0.0, 0.0), 3)


def _assert_componentwise_close(engine, oracle):
    """Mixed tolerance: relative on each closed-form entry, with an absolute
    floor tied to the tensor scale for entries at or near zero."""
    eng, orc = engine.components, oracle.components
    floor = 1e-10 * max(1.0, float(np.abs(orc).max()))
    np.testing.assert_allclose(eng, orc, rtol=1e-8, atol=floor)


F_PROFILES = ["x", "x^2", "exp(0.7*x)", "x^3 - x", "1 + x + 0.5*x^4", "exp(x)"]
H_PROFILES = ["t^2", "t^3", "exp(0.6*t)", "t^5", "1 + t^3 - 2*t^2", "exp(t)"]


@pytest.mark.parametrize("profile", F_PROFILES)
def test_f_oracle_matches_engine(profile):
    fn = parse(profile)
    g = family_f_metric(fn)
    rng = np.random.default_rng(F_PROFILES.index(profile))
    for xv in rng.uniform(0.2, 1.0, size=2):
        p = (0.0, float(xv), 0.0)
        gscale = max(1.0, float(np.abs(g.component_matrix(p)).max()))
        seq = nabla_riemann_sequence(g.scaled(1.0 / gscale), p, 5)
        for k in range(6):
            oracle = family_f_oracle(fn, p, k)
            oracle_scaled = type(oracle)(4 + k, oracle.components / gscale)
            _assert_componentwise_close(seq[k], oracle_scaled)


@pytest.mark.parametrize("profile", H_PROFILES)
def test_h_oracle_matches_engine(profile):
    fn = parse(profile)
    g = family_h_metric(fn)
    rng = np.random.default_rng(100 + H_PROFILES.index(profile))
    for tv in rng.uniform(0.5, 2.0, size=2):
        p = (float(tv), 0.0, 0.0)
        gscale = max(1.0, float(np.abs(g.component_matrix(p)).max()))
        seq = nabla_riemann_sequence(g.scaled(1.0 / gscale), p, 2)
        for k in range(3):
            oracle = family_h_oracle(fn, p, k)
            oracle_scaled = type(oracle)(4 + k, oracle.components / gscale)
            _assert_componentwise_close(seq[k], oracle_scaled)


@pytest.mark.parametrize("profile", ["1/x", "exp(x)", "2.5615528128088303*log(x)", "x^2", "sin(x) + x^3"])
def test_f_oracle_list_equals_the_per_order_oracles(profile):
    fn, pts = parse(profile), [(0.0, 0.7, 0.0), (0.0, 1.1, 0.0), (0.0, 1.4, 0.0)]
    oracles = family_f_oracles(fn, pts, 8)
    assert [t.rank for t in oracles] == list(range(4, 13))
    for k, t in enumerate(oracles):
        np.testing.assert_array_equal(t.components, family_f_oracle(fn, pts, k).components)


@pytest.mark.parametrize("profile", ["t^3", "exp(t)", "t^5", "sin(t) + t^2"])
def test_h_oracle_list_equals_the_per_order_oracles(profile):
    fn, pts = parse(profile), [(0.7, 0.0, 0.0), (1.3, 0.0, 0.0)]
    oracles = family_h_oracles(fn, pts, 2)
    assert [t.rank for t in oracles] == [4, 5, 6]
    for k, t in enumerate(oracles):
        np.testing.assert_array_equal(t.components, family_h_oracle(fn, pts, k).components)


def test_overflowing_delta_raises_without_numpy_warnings():
    import warnings

    # f' = 1e300 is in range, (f')^2 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="math range error"):
            delta_derivatives(parse("1e300*x"), [(0.0, -2.0, 0.0), (0.0, 1.0, 0.0)], 1)


@pytest.mark.parametrize("profile", ["x", "exp(x)", "1/x", "-x", "x - 20", "2.5615528128088303*log(x)", "(x*1e-300)^-2"])
def test_family_metrics_are_trees_around_the_profile(profile):
    """The metric entries equal what parsing their text gives, and hold the
    profile's own tree: no printing and parsing again."""
    import re

    from curvhom.expr import BinOp, Call, Neg, Num, pretty

    f = parse(profile)
    h = parse(re.sub(r"\bx\b", "t", profile))
    gtt, gxx = family_f_metric(f).entry(T, T), family_h_metric(h).entry(X, X)
    assert gtt == Call("exp", BinOp("*", Num(2.0), f)) == parse(f"exp(2*({pretty(f)}))")
    assert gxx == BinOp("*", Neg(Num(2.0)), h) == parse(f"-2*({pretty(h)})")
    assert gtt.arg.right is f and gxx.right is h
