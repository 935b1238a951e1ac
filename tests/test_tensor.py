import numpy as np
import pytest

from curvhom.expr import parse
from curvhom.families import family_f_metric, family_h_metric
from curvhom.geometry import riemann
from curvhom.tensor import (
    Frame,
    TensorAtPoint,
    check_metric,
    contract,
    covariant,
    identity_frame,
    lower_first_index,
    pullback,
    raise_last_index,
    signature,
)

RNG = np.random.default_rng(42)

LORENTZ_PAIRING = TensorAtPoint(0, 2, np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]]))


def random_covariant(rank):
    return covariant(RNG.normal(size=(3,) * rank))


def random_frame():
    while True:
        m = RNG.normal(size=(3, 3))
        if abs(np.linalg.det(m)) > 0.1:
            return Frame(m)


def test_pullback_identity_frame():
    t = random_covariant(4)
    np.testing.assert_array_equal(pullback(t, identity_frame()).components, t.components)


def test_pullback_diagonal_scaling_of_curvature_entry():
    # stretching X by lam multiplies the (t,x,x,t) entry by lam^2
    lam = 1.7
    t = random_covariant(4)
    out = pullback(t, Frame(np.diag([1.0, lam, 1.0 / lam])))
    assert out.components[0, 1, 1, 0] == pytest.approx(lam**2 * t.components[0, 1, 1, 0])


def test_pullback_inverse_composition():
    t = random_covariant(4)
    f = random_frame()
    back = pullback(pullback(t, f), f.inverse())
    np.testing.assert_allclose(back.components, t.components, rtol=1e-12, atol=1e-12)


def test_pullback_functorial():
    for _ in range(20):
        t = random_covariant(3)
        a, b = random_frame(), random_frame()
        combined = pullback(t, a.compose(b))
        stepwise = pullback(pullback(t, a), b)
        np.testing.assert_allclose(combined.components, stepwise.components, rtol=1e-10, atol=1e-10)


def test_pullback_mixed_tensor_uses_inverse_on_contravariant_slot():
    v = TensorAtPoint(1, 0, np.array([1.0, 2.0, 3.0]))
    f = random_frame()
    out = pullback(v, f)
    np.testing.assert_allclose(out.components, np.linalg.inv(f.matrix) @ v.components, rtol=1e-12)


def test_raise_then_lower_is_identity():
    g = TensorAtPoint(0, 2, np.diag([2.0, -1.0, 0.5]))
    for _ in range(10):
        t = random_covariant(4)
        back = lower_first_index(raise_last_index(t, g), g)
        np.testing.assert_allclose(back.components, t.components, rtol=1e-10, atol=1e-10)


def test_raise_with_lorentz_pairing_swaps_x_and_y():
    t = covariant(np.zeros((3, 3, 3, 3)))
    comp = t.components.copy()
    comp[0, 1, 1, 1] = 5.0  # last slot x pairs with y under the x<->y product
    out = raise_last_index(covariant(comp), LORENTZ_PAIRING)
    assert out.components[2, 0, 1, 1] == pytest.approx(5.0)
    assert out.components[1, 0, 1, 1] == 0.0


def test_curvature_operator_of_f_family():
    # R(dx, dt)dt = -e^{2f} delta dy; only the dy component survives
    f = parse("x")
    g = family_f_metric(f)
    p = (0.0, 0.5, 0.0)
    r = riemann(g, p)
    op = raise_last_index(r, g.tensor_at(p))
    delta = 1.0  # f = x: f'' + (f')^2 = 1
    expected = -np.exp(2 * 0.5) * delta
    assert op.components[2, 1, 0, 0] == pytest.approx(expected)
    assert op.components[0, 1, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert op.components[1, 1, 0, 0] == pytest.approx(0.0, abs=1e-12)


def test_contract_identity_trace():
    eye = TensorAtPoint(1, 1, np.eye(3))
    out = contract(eye, 0, 1)
    assert out.rank == 0
    assert out.components == pytest.approx(3.0)


def test_contract_requires_metric_for_like_variance():
    t = random_covariant(2)
    with pytest.raises(ValueError):
        contract(t, 0, 1)


def test_scalar_curvature_of_f_family_vanishes():
    g = family_f_metric(parse("x^2"))
    for xv in (0.3, 0.8, 1.4):
        p = (0.0, xv, 0.0)
        r = riemann(g, p)
        gp = g.tensor_at(p)
        ricci = contract(r, 0, 3, gp)
        scal = contract(ricci, 0, 1, gp)
        assert scal.components == pytest.approx(0.0, abs=1e-10)


def test_contract_zero_tensor():
    z = covariant(np.zeros((3, 3)))
    out = contract(z, 0, 1, LORENTZ_PAIRING)
    assert out.components == pytest.approx(0.0)


def test_contract_slot_validation():
    t = random_covariant(3)
    with pytest.raises(ValueError):
        contract(t, 1, 1)
    with pytest.raises(ValueError):
        contract(t, 0, 5)


def test_family_metrics_are_lorentzian():
    gf = family_f_metric(parse("exp(x)"))
    gh = family_h_metric(parse("t^3"))
    for xv in (0.1, 0.9):
        assert signature(gf.tensor_at((0.0, xv, 0.0))) == (2, 1)
    for tv in (1.0, 1.8):
        assert signature(gh.tensor_at((tv, 0.0, 0.0))) == (2, 1)


def test_singular_frame_and_metric_are_rejected():
    with pytest.raises(ValueError):
        Frame(np.zeros((3, 3)))
    bad = TensorAtPoint(0, 2, np.ones((3, 3)))
    t = random_covariant(4)
    with pytest.raises(ValueError):
        raise_last_index(t, bad)


def test_tiny_but_regular_frame_and_metric_are_accepted():
    # the determinant floor is relative to the product of the row norms
    Frame(np.diag([1e-13, 1.0, 1.0]))
    Frame(np.diag([1e13, 1.0, 1e-13]))
    m = np.array([[1e-20, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert check_metric(TensorAtPoint(0, 2, m)) is m


def test_component_shape_validation():
    with pytest.raises(ValueError):
        TensorAtPoint(0, 2, np.zeros((3, 4)))
