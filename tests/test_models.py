import numpy as np
import pytest

from curvhom.expr import parse
from curvhom.families import custom_metric, family_f_metric, family_h_metric, place_curvature_block
from curvhom.models import (
    PHI_CANONICAL,
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
from curvhom.tensor import Frame, TensorAtPoint

T, X, Y = 0, 1, 2


def order0_group_frame(a1, a4, a3=0.0):
    """phi-preserving frame of the triangular order-0 shape.

    Metric preservation pins a2, a5, a6 once a1, a3, a4 are chosen.
    """
    a2 = -a1 * a3 / a4
    a5 = -(a3**2) / (2 * a4)
    a6 = 1.0 / a4
    m = np.zeros((3, 3))
    m[T, 0], m[Y, 0] = a1, a2
    m[T, 1], m[X, 1], m[Y, 1] = a3, a4, a5
    m[Y, 2] = a6
    return Frame(m)


def order1_group_frame(b2):
    return Frame(np.diag([1.0, b2, 1.0 / b2]))


@pytest.fixture(scope="module")
def f_model_r1():
    f = parse("x^2")
    p = (0.0, 1.0, 0.0)
    g = family_f_metric(f)
    return build_model(g, p, 1, adapted_frame_f(f, p, ch0_lambda_f(f, p)))


@pytest.fixture(scope="module")
def h_model_r1():
    h = parse("t^3")
    p = (1.0, 0.0, 0.0)
    g = family_h_metric(h)
    return build_model(g, p, 1, adapted_frame_h(h, p, scaling_lambda_h(h, p)))


def test_adapted_frame_f_trivial_profile():
    frame = adapted_frame_f(parse("0"), (0.0, 0.0, 0.0), 1.0)
    np.testing.assert_allclose(frame.matrix, np.eye(3))


def test_adapted_frame_f_normalizes_metric():
    f = parse("x^2")
    p = (0.0, 1.0, 0.0)
    model = build_model(family_f_metric(f), p, 0, adapted_frame_f(f, p, 1.0))
    np.testing.assert_allclose(model.phi.components, PHI_CANONICAL, atol=1e-12)


def test_adapted_frame_f_ch0_normalization(f_model_r1):
    # delta = 6 > 0 at x = 1, so the canonical entry is -1
    assert f_model_r1.tensor(0).components[T, X, X, T] == pytest.approx(-1.0, abs=1e-12)


def test_adapted_frame_h_entries():
    h = parse("t^3")
    p = (1.0, 0.0, 0.0)
    model = build_model(family_h_metric(h), p, 1, adapted_frame_h(h, p, 1.0))
    np.testing.assert_allclose(model.phi.components, PHI_CANONICAL, atol=1e-12)
    assert model.tensor(0).components[T, X, X, T] == pytest.approx(6.0)
    assert model.tensor(1).components[T, X, X, T, T] == pytest.approx(6.0)


def test_adapted_frame_h_ch0_normalization():
    h = parse("t^3")
    p = (1.0, 0.0, 0.0)
    model = build_model(family_h_metric(h), p, 0, adapted_frame_h(h, p, ch0_lambda_h(h, p)))
    assert model.tensor(0).components[T, X, X, T] == pytest.approx(1.0, abs=1e-12)


def test_adapted_frame_h_flat_profile():
    h = parse("0")
    model = build_model(family_h_metric(h), (0.0, 0.0, 0.0), 0, adapted_frame_h(h, (0.0, 0.0, 0.0), 1.0))
    np.testing.assert_allclose(model.phi.components, PHI_CANONICAL, atol=1e-14)
    assert np.abs(model.tensor(0).components).max() == 0.0


def test_build_model_identity_frame_flat_metric():
    one, zero = parse("1"), parse("0")
    g = custom_metric([[one, zero, zero], [zero, one, zero], [zero, zero, one]])
    model = build_model(g, (0.0, 0.0, 0.0), 2, Frame(np.eye(3)))
    np.testing.assert_allclose(model.phi.components, np.eye(3))
    for k in range(3):
        assert np.abs(model.tensor(k).components).max() == 0.0


def test_build_model_h_scaling_alignment(h_model_r1):
    # with lam^2 = (h''')^2/(h'')^3 the entries become (psi, psi^{3/2})
    psi = h_model_r1.tensor(0).components[T, X, X, T]
    e1 = h_model_r1.tensor(1).components[T, X, X, T, T]
    assert psi == pytest.approx((6.0 / 6.0) ** 2)  # (h'''/h'')^2 at t=1
    assert e1 == pytest.approx(psi ** 1.5, rel=1e-12)


def test_order0_automorphism_identity(f_model_r1):
    model0 = ModelSpace(0, f_model_r1.phi, (f_model_r1.tensor(0),))
    res = check_automorphism_order0(Frame(np.eye(3)), model0)
    assert res.accepted
    assert res.parameters["a1"] == 1.0
    assert res.parameters["a4"] == 1.0
    assert res.parameters["a6"] == 1.0


def test_order0_automorphism_time_flip(f_model_r1):
    model0 = ModelSpace(0, f_model_r1.phi, (f_model_r1.tensor(0),))
    res = check_automorphism_order0(Frame(np.diag([-1.0, 1.0, 1.0])), model0)
    assert res.accepted
    assert res.parameters["a1"] == -1.0


def test_order0_automorphism_rejects_xy_swap(f_model_r1):
    model0 = ModelSpace(0, f_model_r1.phi, (f_model_r1.tensor(0),))
    swap = np.eye(3)[:, [0, 2, 1]]
    res = check_automorphism_order0(Frame(swap), model0)
    assert not res.accepted


def test_order0_automorphism_random_group(f_model_r1):
    model0 = ModelSpace(0, f_model_r1.phi, (f_model_r1.tensor(0),))
    rng = np.random.default_rng(11)
    for _ in range(50):
        a1, a4 = rng.choice([-1.0, 1.0], size=2)
        frame = order0_group_frame(a1, a4, a3=float(rng.normal(scale=2.0)))
        res = check_automorphism_order0(frame, model0)
        assert res.accepted
        assert res.parameters["a1"] == pytest.approx(a1)
        assert res.parameters["a4"] == pytest.approx(a4)
    for _ in range(50):
        frame = order0_group_frame(1.0, float(rng.uniform(1.1, 3.0)), a3=float(rng.normal()))
        assert not check_automorphism_order0(frame, model0).accepted


def test_order0_group_composition_closure(f_model_r1):
    model0 = ModelSpace(0, f_model_r1.phi, (f_model_r1.tensor(0),))
    rng = np.random.default_rng(5)
    for _ in range(20):
        fa = order0_group_frame(*rng.choice([-1.0, 1.0], size=2), a3=float(rng.normal()))
        fb = order0_group_frame(*rng.choice([-1.0, 1.0], size=2), a3=float(rng.normal()))
        assert check_automorphism_order0(Frame(fa.matrix @ fb.matrix), model0, tol=1e-9).accepted


def test_order1_automorphism_identity(h_model_r1):
    res = check_automorphism_order1(Frame(np.eye(3)), h_model_r1)
    assert res.accepted
    assert res.parameters["b2"] == 1.0


def test_order1_automorphism_rejects_time_flip(h_model_r1):
    res = check_automorphism_order1(Frame(np.diag([-1.0, 1.0, 1.0])), h_model_r1)
    assert not res.accepted


def test_order1_automorphism_rejects_shear(h_model_r1):
    # FX = X + 5Y spoils phi(FX, FX) = 0 even though it preserves the blocks
    m = np.eye(3)
    m[Y, 1] = 5.0
    assert not check_automorphism_order1(Frame(m), h_model_r1).accepted


def test_order1_automorphism_x_flip(h_model_r1):
    res = check_automorphism_order1(order1_group_frame(-1.0), h_model_r1)
    assert res.accepted
    assert res.parameters["b2"] == -1.0
    assert res.parameters["b4"] == -1.0


def test_order1_check_requires_canonical_model(f_model_r1):
    # the f-family order-1 model has its nabla R entry in the X slot, not T
    with pytest.raises(ValueError):
        check_automorphism_order1(Frame(np.eye(3)), f_model_r1)


def test_curvature_block_sign_pattern():
    blk = np.zeros((3,) * 4)
    place_curvature_block(blk, (T, X), 2.0, ())
    assert blk[T, X, X, T] == 2.0
    assert blk[X, T, T, X] == 2.0
    assert blk[T, X, T, X] == -2.0
    assert blk[X, T, X, T] == -2.0
    assert np.count_nonzero(blk) == 4


def test_model_space_order_validation():
    phi = TensorAtPoint(2, PHI_CANONICAL.copy())
    with pytest.raises(ValueError):
        ModelSpace(1, phi, (TensorAtPoint(4, np.zeros((3,) * 4)),))


@pytest.mark.parametrize(
    "metric, profile, coord",
    [(family_f_metric, "sin(x) + x^2", X), (family_f_metric, "-3*x", X), (family_h_metric, "exp(t) - t^3", T)],
)
def test_adapted_frame_of_the_metric_matrices_is_canonical(metric, profile, coord):
    """adapted_frame(g, lam) takes either family's metric to PHI_CANONICAL,
    at random points and a random lam per point; a scalar lam works too."""
    from curvhom.models import adapted_frame
    from curvhom.tensor import pullback

    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(6, 3))
    g = metric(parse(profile)).component_matrix(pts)
    for lam in (rng.uniform(0.1, 10.0, size=6), 2.5):
        phi = pullback(TensorAtPoint(2, g), adapted_frame(g, lam)).components
        cancel = np.max(lam) ** 2 * np.abs(g).max()  # g(X, X) = lam^2 (g_xx - g_xx)
        np.testing.assert_allclose(phi, np.broadcast_to(PHI_CANONICAL, phi.shape), rtol=0, atol=1e-15 * cancel)
    with pytest.raises(ValueError, match="lam must be positive"):
        adapted_frame(g, 0.0)
