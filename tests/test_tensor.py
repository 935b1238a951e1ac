import numpy as np
import pytest

from curvhom.expr import parse
from curvhom.families import custom_metric, family_f_metric, family_h_metric
from curvhom.geometry import DegenerateMetricError, riemann
from curvhom.tensor import Frame, TensorAtPoint, pullback

RNG = np.random.default_rng(42)


def random_covariant(rank):
    return TensorAtPoint(rank, RNG.normal(size=(3,) * rank))


def random_frame():
    while True:
        m = RNG.normal(size=(3, 3))
        if abs(np.linalg.det(m)) > 0.1:
            return Frame(m)


def test_pullback_identity_frame():
    t = random_covariant(4)
    np.testing.assert_array_equal(pullback(t, Frame(np.eye(3))).components, t.components)


def test_pullback_diagonal_scaling_of_curvature_entry():
    # stretching X by lam multiplies the (t,x,x,t) entry by lam^2
    lam = 1.7
    t = random_covariant(4)
    out = pullback(t, Frame(np.diag([1.0, lam, 1.0 / lam])))
    assert out.components[0, 1, 1, 0] == pytest.approx(lam**2 * t.components[0, 1, 1, 0])


def test_pullback_inverse_composition():
    t = random_covariant(4)
    f = random_frame()
    back = pullback(pullback(t, f), Frame(np.linalg.inv(f.matrix)))
    np.testing.assert_allclose(back.components, t.components, rtol=1e-12, atol=1e-12)


def test_pullback_functorial():
    for _ in range(20):
        t = random_covariant(3)
        a, b = random_frame(), random_frame()
        combined = pullback(t, Frame(a.matrix @ b.matrix))
        stepwise = pullback(pullback(t, a), b)
        np.testing.assert_allclose(combined.components, stepwise.components, rtol=1e-10, atol=1e-10)


def test_curvature_operator_of_f_family():
    # R(dx, dt)dt = -e^{2f} delta dy; only the dy component survives
    f = parse("x")
    g = family_f_metric(f)
    p = (0.0, 0.5, 0.0)
    r = riemann(g, p).components
    op = np.einsum("ijkl,al->aijk", r, np.linalg.inv(g.component_matrix(p)))  # raise the last slot
    delta = 1.0  # f = x: f'' + (f')^2 = 1
    expected = -np.exp(2 * 0.5) * delta
    assert op[2, 1, 0, 0] == pytest.approx(expected)
    assert op[0, 1, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert op[1, 1, 0, 0] == pytest.approx(0.0, abs=1e-12)


def test_scalar_curvature_of_f_family_vanishes():
    g = family_f_metric(parse("x^2"))
    for xv in (0.3, 0.8, 1.4):
        p = (0.0, xv, 0.0)
        ginv = np.linalg.inv(g.component_matrix(p))
        # Ric_jk = g^{ab} R_ajkb, then s = g^{jk} Ric_jk
        scal = np.einsum("ajkb,ab,jk->", riemann(g, p).components, ginv, ginv)
        assert scal == pytest.approx(0.0, abs=1e-10)


def test_family_metrics_are_lorentzian():
    gf = family_f_metric(parse("exp(x)"))
    gh = family_h_metric(parse("t^3"))
    points = [(gf, (0.0, xv, 0.0)) for xv in (0.1, 0.9)] + [(gh, (tv, 0.0, 0.0)) for tv in (1.0, 1.8)]
    for g, p in points:
        eig = np.linalg.eigvalsh(g.component_matrix(p))
        assert (np.sum(eig > 0), np.sum(eig < 0)) == (2, 1)


def test_singular_frame_and_metric_are_rejected():
    with pytest.raises(ValueError):
        Frame(np.zeros((3, 3)))
    one = parse("1")
    with pytest.raises(DegenerateMetricError):
        riemann(custom_metric([[one] * 3] * 3), (0.0, 0.0, 0.0))


def test_tiny_but_regular_frame_and_metric_are_accepted():
    # the determinant floor is relative to the product of each row's largest entry
    Frame(np.diag([1e-13, 1.0, 1.0]))
    Frame(np.diag([1e13, 1.0, 1e-13]))
    zero, one = parse("0"), parse("1")
    g = custom_metric([[parse("1e-20"), zero, zero], [zero, zero, one], [zero, one, zero]])
    assert np.abs(riemann(g, (0.0, 0.0, 0.0)).components).max() == 0.0


def test_component_shape_validation():
    with pytest.raises(ValueError):
        TensorAtPoint(2, np.zeros((3, 4)))


# --- tensors on a box of directions -------------------------------------------


def test_box_embeds_through_its_supports():
    comp = RNG.normal(size=(2, 3, 2, 1))
    t = TensorAtPoint(3, comp, ((0, 1, 2), (0, 2), (1,)))
    assert t.shape == (3, 2, 1) and t.batch == (2,)
    dense = t.dense()
    assert dense.shape == (2, 3, 3, 3)
    np.testing.assert_array_equal(dense[:, :, [0, 2]][..., [1]], comp)
    assert np.count_nonzero(dense) == comp.size
    np.testing.assert_array_equal(dense[:, 1, 2, 1], comp[:, 1, 1, 0])
    np.testing.assert_array_equal(t.embed(((0, 1, 2), (0, 1, 2), (0, 1))), dense[..., :2])
    with pytest.raises(ValueError):
        TensorAtPoint(3, comp, ((0, 1, 2), (0, 1, 2), (1,)))


def _frames(npts):
    """The f and h adapted frames, with a point axis, and a dense random one."""
    lam = np.linspace(0.5, 2.0, npts)
    f = np.zeros((npts, 3, 3))
    f[:, 0, 0], f[:, 1, 1], f[:, 2, 2] = np.exp(-lam), lam, 1.0 / lam
    h = np.zeros((npts, 3, 3))
    h[:, 0, 0], h[:, 1, 1], h[:, 2, 1], h[:, 2, 2] = 1.0, lam, lam * lam**3, 1.0 / lam
    return {"f": Frame(f), "h": Frame(h), "dense": random_frame()}


@pytest.mark.parametrize("kind, new", [("f", (0, 1)), ("h", (0, 1)), ("dense", (0, 1, 2))])
@pytest.mark.parametrize("rank", [2, 4, 7])
def test_box_pullback_equals_the_dense_pullback(kind, new, rank):
    npts = 4
    supports = ((0, 1, 2),) * 2 + ((0, 1),) * (rank - 2)
    t = TensorAtPoint(rank, RNG.normal(size=(npts, 3, 3) + (2,) * (rank - 2)), supports)
    frame = _frames(npts)[kind]
    got = pullback(t, frame)
    want = pullback(TensorAtPoint(rank, t.dense()), frame)
    assert got.supports == ((0, 1, 2),) * 2 + (new,) * (rank - 2)
    assert want.supports == ((0, 1, 2),) * rank
    np.testing.assert_allclose(got.dense(), want.components, rtol=0, atol=1e-14 * np.abs(want.components).max())


def test_pullback_of_the_empty_box():
    t = TensorAtPoint(3, np.zeros((2, 3, 3, 0)), ((0, 1, 2), (0, 1, 2), ()))
    out = pullback(t, _frames(2)["h"])
    assert out.supports[2] == () and out.components.shape == (2, 3, 3, 0)


@pytest.mark.parametrize("kind", ["f", "h", "dense"])
def test_sequence_pullback_equals_each_tensor_on_its_own(kind):
    # g and nabla^0 P ... nabla^6 P on the box of the f and h families, and a
    # point-free metric, on one plan
    npts = 3
    frame = _frames(npts)[kind]
    seq = [TensorAtPoint(2, RNG.normal(size=(3, 3)))]
    seq += [TensorAtPoint(2 + k, RNG.normal(size=(npts, 3, 3) + (2,) * k), ((0, 1, 2),) * 2 + ((0, 1),) * k) for k in range(7)]
    got = pullback(seq, frame)
    assert isinstance(got, list) and len(got) == len(seq)
    for a, t in zip(got, seq):
        want = pullback(t, frame)
        assert a.supports == want.supports
        np.testing.assert_array_equal(a.components, want.components)
    assert pullback([], frame) == []
