"""Engine checks: Christoffels, curvature, covariant derivatives, identities.

The closed forms used as oracles here:

  f-family (g_tt = e^{2f(x)}, g_xy = 1), delta = f'' + (f')^2:
      Gamma^y_tt = -f' e^{2f},  Gamma^t_tx = f'
      nabla^k R(dx, dt, dt, dx; dx...dx) = -e^{2f} delta^(k)

  h-family (g_tt = 1, g_xy = 1, g_xx = -2h(t)):
      Gamma^t_xx = h',  Gamma^y_xt = -h'
      R(dt, dx, dx, dt) = h'',  nabla R(...; dt) = h''',
      nabla^2 R(...; dt, dt) = h'''',  nabla^2 R(...; dx, dx) = -h' h'''
"""

import numpy as np
import pytest

from curvhom.expr import parse
from curvhom.families import family_f_metric, family_h_metric
from curvhom.geometry import (
    MetricField,
    christoffel,
    kulkarni_nomizu,
    nabla_k_riemann,
    nabla_riemann_sequence,
    nabla_schouten_sequence,
    riemann,
)
from curvhom.tensor import AXES, Frame, TensorAtPoint, pullback

T, X, Y = 0, 1, 2
ORIGIN = (0.0, 0.0, 0.0)


def test_christoffel_f_family_linear_profile():
    g = family_f_metric(parse("x"))
    conn = christoffel(g, ORIGIN)
    vals = conn.gamma[0]
    assert vals[Y, T, T] == pytest.approx(-1.0)  # -f' e^{2f} at x=0
    assert vals[T, T, X] == pytest.approx(1.0)  # f'
    assert vals[T, X, T] == pytest.approx(1.0)
    mask = np.ones((3, 3, 3), dtype=bool)
    mask[Y, T, T] = mask[T, T, X] = mask[T, X, T] = False
    assert np.abs(vals[mask]).max() == pytest.approx(0.0, abs=1e-14)


def test_christoffel_h_family_cubic_profile():
    g = family_h_metric(parse("t^3"))
    vals = christoffel(g, (1.0, 0.0, 0.0)).gamma[0]
    assert vals[T, X, X] == pytest.approx(3.0)  # h'
    assert vals[Y, X, T] == pytest.approx(-3.0)  # -h'
    assert vals[Y, T, X] == pytest.approx(-3.0)


def test_christoffel_flat_metric():
    g = family_f_metric(parse("0"))
    assert np.abs(christoffel(g, ORIGIN).gamma[0]).max() == 0.0


def test_christoffel_symmetric_in_lower_indices():
    g = family_h_metric(parse("exp(t)"))
    conn = christoffel(g, (0.3, 0.0, 0.0), order=2)
    for a in range(3):
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(conn.gamma[..., a, i, j], conn.gamma[..., a, j, i])


def test_riemann_f_family_quadratic_profile():
    g = family_f_metric(parse("x^2"))
    r = riemann(g, (0.0, 1.0, 0.0))
    # delta(1) = 2 + 4 = 6
    assert r.components[X, T, T, X] == pytest.approx(-np.exp(2.0) * 6.0, rel=1e-12)


def test_riemann_h_family_cubic_profile():
    g = family_h_metric(parse("t^3"))
    r = riemann(g, (2.0, 0.0, 0.0))
    assert r.components[T, X, X, T] == pytest.approx(12.0)


def test_riemann_flat():
    g = family_f_metric(parse("0"))
    assert np.abs(riemann(g, ORIGIN).components).max() == 0.0


def test_nabla_k_exponential_profile_all_orders():
    # f = e^x: delta = e^x + e^{2x}, delta^(k)(0) = 1 + 2^k, e^{2f(0)} = e^2
    g = family_f_metric(parse("exp(x)"))
    seq = nabla_riemann_sequence(g, ORIGIN, 6)
    for k in range(7):
        entry = seq[k].components[(X, T, T, X) + (X,) * k]
        assert entry == pytest.approx(-(1 + 2**k) * np.exp(2.0), rel=1e-10)


def test_nabla_h_family_entries_and_sign():
    g = family_h_metric(parse("t^3"))
    for tv in (1.0, 1.5, 2.0):
        p = (tv, 0.0, 0.0)
        seq = nabla_riemann_sequence(g, p, 2)
        assert seq[1].components[T, X, X, T, T] == pytest.approx(6.0)
        assert seq[2].components[T, X, X, T, T, T] == pytest.approx(0.0, abs=1e-12)
        # the recursion's fifth-slot correction makes this -h' h'''
        assert seq[2].components[T, X, X, T, X, X] == pytest.approx(-18.0 * tv**2, rel=1e-12)
        assert seq[2].components[T, X, X, T, T, X] == pytest.approx(0.0, abs=1e-12)
        assert seq[2].components[T, X, X, T, X, T] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family, profile", [("f", "exp(x)"), ("h", "t^3")])
def test_components_with_y_slot_vanish(family, profile):
    if family == "f":
        g, p = family_f_metric(parse(profile)), (0.0, 0.7, 0.0)
    else:
        g, p = family_h_metric(parse(profile)), (1.3, 0.0, 0.0)
    for k in (0, 1, 2, 3):
        comp = nabla_k_riemann(g, p, k).components
        for axis in range(comp.ndim):
            sel = np.take(comp, Y, axis=axis)
            assert np.abs(sel).max() == pytest.approx(0.0, abs=1e-10)


def test_nabla_zero_matches_riemann():
    g = family_h_metric(parse("exp(t)"))
    p = (0.4, 0.0, 0.0)
    np.testing.assert_array_equal(nabla_k_riemann(g, p, 0).components, riemann(g, p).components)


# --- identity suite on random polynomial metrics --------------------------------


def random_polynomial_metric(rng):
    """Symmetric nondegenerate metric with small polynomial perturbations."""
    base = rng.choice([np.diag([1.0, 1.0, 1.0]), np.diag([-1.0, 1.0, 1.0]),
                       np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])])
    mono = ["t", "x", "y", "t*x", "x*y", "t*y", "t^2", "x^2", "y^2"]
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            if j < i:
                row.append(None)
                continue
            terms = [f"{float(base[i][j])!r}"]
            for m in rng.choice(mono, size=2, replace=False):
                terms.append(f"{rng.uniform(-0.25, 0.25):.6f}*{m}")
            row.append(parse(" + ".join(terms)))
        rows.append(row)
    matrix = [[rows[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
    return MetricField.from_matrix(matrix)


def sample_metrics(count, seed=3):
    rng = np.random.default_rng(seed)
    mets = [family_f_metric(parse("exp(x)")), family_h_metric(parse("t^3"))]
    mets += [random_polynomial_metric(rng) for _ in range(count)]
    return mets


def curvature_symmetry_deviation(r):
    c = r.components
    dev = np.abs(c + np.swapaxes(c, 0, 1)).max()
    dev = max(dev, np.abs(c + np.swapaxes(c, 2, 3)).max())
    dev = max(dev, np.abs(c - np.moveaxis(c, (0, 1, 2, 3), (2, 3, 0, 1))).max())
    bianchi1 = c + np.moveaxis(c, (0, 1, 2), (1, 2, 0)) + np.moveaxis(c, (0, 1, 2), (2, 0, 1))
    return max(dev, np.abs(bianchi1).max())


def second_bianchi_deviation(nr):
    c = nr.components
    cyc = c + np.moveaxis(c, (2, 3, 4), (3, 4, 2)) + np.moveaxis(c, (2, 3, 4), (4, 2, 3))
    return float(np.abs(cyc).max())


def nabla_g_deviation(g, p):
    """Metric compatibility from Christoffel jets, computed independently."""
    from curvhom.expr import coords_of, eval_jet
    from curvhom.jets import partial as jpartial

    gamma = christoffel(g, p).gamma[0]
    dev = 0.0
    for m in range(3):
        direction = [0, 0, 0]
        direction[m] = 1
        for i in range(3):
            for j in range(3):
                dg = jpartial(eval_jet(g.entry(i, j), p, 1), tuple(direction), 1, coords_of(g.entry(i, j)))
                corr = sum(gamma[a, m, i] * g.component_matrix(p)[a, j] for a in range(3))
                corr += sum(gamma[a, m, j] * g.component_matrix(p)[i, a] for a in range(3))
                dev = max(dev, abs(dg - corr))
    return dev


def ricci_identity_terms(seq, k, ginv):
    """Both sides of the Ricci identity for nabla^k R, k >= 2:

        N_{I; m1 m2} - N_{I; m2 m1} = -sum_s R^a_{m2 m1 i_s} T_{i_1 .. a .. i_n}

    with N = nabla^k R, T = nabla^{k-2} R and R^a_{ijk} = g^{al} R_{ijkl}.
    The sign is that of R(X, Y) = [nabla_X, nabla_Y] - nabla_[X, Y], the
    convention the f-family closed form R(dx, dt, dt, dx) = -e^{2f} delta
    fixes (test_nabla_k_exponential_profile_all_orders).  On the f- and
    h-family samples both sides vanish at k = 2; on the random metrics they
    do not, so there the opposite sign fails.
    """
    n = seq[k].components
    t = seq[k - 2].components
    lhs = n - np.swapaxes(n, -1, -2)
    up = np.einsum("ijkl,al->aijk", seq[0].components, ginv)
    slots = "abcdefghijklmnop"[: t.ndim]
    rhs = np.zeros_like(lhs)
    for s in range(t.ndim):
        raised = slots[:s] + "z" + slots[s + 1:]
        rhs -= np.einsum(f"{raised},zxy{slots[s]}->{slots}yx", t, up)
    return lhs, rhs


@pytest.mark.parametrize("idx", range(8))
def test_curvature_identities_random_metrics(idx):
    g = sample_metrics(6)[idx]
    rng = np.random.default_rng(idx)
    for _ in range(2):
        p = tuple(rng.uniform(0.2, 0.6, size=3))
        scale = max(1.0, float(np.abs(g.component_matrix(p)).max()))
        gs = g.scaled(1.0 / scale)
        seq = nabla_riemann_sequence(gs, p, 3)
        assert curvature_symmetry_deviation(seq[0]) < 1e-9
        assert second_bianchi_deviation(seq[1]) < 1e-8
        assert nabla_g_deviation(gs, p) < 1e-10
        ginv = np.linalg.inv(gs.component_matrix(p))
        for k in (2, 3):
            lhs, rhs = ricci_identity_terms(seq, k, ginv)
            assert np.abs(lhs - rhs).max() < 1e-9
            if idx >= 2:  # a generic metric: the opposite sign would fail
                assert np.abs(rhs).max() > 1e-4


def _both_sequences(g, points, kmax):
    """nabla^k R for k <= kmax, then g and nabla^k P."""
    g0, schouten = nabla_schouten_sequence(g, points, kmax)
    return nabla_riemann_sequence(g, points, kmax) + [g0] + schouten


@pytest.mark.parametrize("idx", range(8))
def test_batched_sequence_matches_batches_of_one(idx):
    g = sample_metrics(6)[idx]
    pts = np.random.default_rng(idx).uniform(0.2, 0.6, size=(4, 3))
    batched = _both_sequences(g, pts, 3)
    assert [t.rank for t in batched] == [4, 5, 6, 7, 2, 2, 3, 4, 5]
    for i, p in enumerate(pts):
        alone = _both_sequences(g, [p], 3)
        single = _both_sequences(g, tuple(p), 3)
        for k in range(len(batched)):
            want = alone[k].components[0]
            scale = max(float(np.abs(want).max()), 1e-300)
            np.testing.assert_allclose(batched[k].components[i], want, rtol=0, atol=1e-12 * scale)
            np.testing.assert_array_equal(single[k].components, want)


def direct_riemann(g, p):
    """R_{ijkl} = g_la (d_i G^a_jk - d_j G^a_ik + G^a_ib G^b_jk - G^a_jb G^b_ik)
    from plain metric derivatives at p, without jet products: a reference
    for the engine's Schouten route on metrics with no closed form."""
    from curvhom.expr import coords_of, eval_jet
    from curvhom.jets import partial

    unit = np.eye(3, dtype=int)
    jet = [[eval_jet(g.entry(i, j), p, 2) for j in range(3)] for i in range(3)]

    def jpartial(i, j, m):
        return partial(jet[i][j], m, 2, coords_of(g.entry(i, j)))

    gm = np.array([[jet[i][j][0] for j in range(3)] for i in range(3)])
    d1 = np.array([[[jpartial(i, j, unit[l]) for j in range(3)] for i in range(3)] for l in range(3)])
    d2 = np.array([[[[jpartial(i, j, unit[l] + unit[m]) for j in range(3)] for i in range(3)]
                    for m in range(3)] for l in range(3)])
    ginv = np.linalg.inv(gm)
    first = 0.5 * (np.einsum("ijb->bij", d1) + np.einsum("jib->bij", d1) - d1)
    dfirst = 0.5 * (np.einsum("lijb->lbij", d2) + np.einsum("ljib->lbij", d2) - d2)
    dinv = -np.einsum("ac,lcd,db->lab", ginv, d1, ginv)
    gamma = np.einsum("ab,bij->aij", ginv, first)
    dgamma = np.einsum("lab,bij->laij", dinv, first) + np.einsum("ab,lbij->laij", ginv, dfirst)
    up = (np.einsum("iajk->aijk", dgamma) - np.einsum("jaik->aijk", dgamma)
          + np.einsum("aib,bjk->aijk", gamma, gamma) - np.einsum("ajb,bik->aijk", gamma, gamma))
    return np.einsum("la,aijk->ijkl", gm, up)


@pytest.mark.parametrize("idx", range(8))
def test_riemann_matches_direct_formula_random_metrics(idx):
    g = sample_metrics(6)[idx]
    rng = np.random.default_rng(idx)
    for _ in range(2):
        p = tuple(rng.uniform(0.2, 0.6, size=3))
        want = direct_riemann(g, p)
        got = riemann(g, p).components
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, float(np.abs(want).max())))


def test_zero_order_budget_raises_nowhere():
    g = family_f_metric(parse("x^3 - x"))
    assert nabla_k_riemann(g, (0.0, 0.5, 0.0), 0).rank == 4


def test_degenerate_metric_detected():
    zero = parse("0")
    one = parse("1")
    bad = MetricField.from_matrix([[one, zero, zero], [zero, one, zero], [zero, zero, zero]])
    with pytest.raises(ValueError):
        riemann(bad, ORIGIN)


def test_one_solve_gives_the_inverse_metric_and_the_connection():
    from curvhom import jets

    g = MetricField.from_matrix([[parse(t) for t in row] for row in
                                 [["exp(2*x)+y^2", "0", "0"], ["0", "0", "1"], ["0", "1", "t^2"]]])
    points, order = [(0.4, 0.3, -0.5), (1.1, -0.2, 0.7)], 6
    conn, top = christoffel(g, points, order), christoffel(g, points, order + 1)
    assert conn.coords == (T, X, Y)

    def product(a, b):  # the Leibniz matrix product, and the same on absolute values: the size of the terms
        return (jets.stacked_product(a, b, order, conn.coords, np.matmul),
                jets.stacked_product(np.abs(a), np.abs(b), order, conn.coords, np.matmul))

    got, scale = product(conn.metric, conn.inverse)
    assert np.all(np.abs(got - jets.jet_constant(np.eye(3), order, (2, 3, 3), conn.coords)) <= 1e-13 * scale)
    dm = np.stack([jets.jet_derivative(top.metric, c, order + 1, conn.coords) for c in (T, X, Y)], axis=2)
    first = 0.5 * (dm.transpose(0, 1, 4, 2, 3) + dm.transpose(0, 1, 4, 3, 2) - dm)  # [pos, pt, b, i, j]
    want, scale = product(conn.inverse, first.reshape(first.shape[:3] + (9,)))
    assert np.all(np.abs(conn.gamma - want.reshape(first.shape)) <= 1e-13 * scale.reshape(first.shape))


@pytest.mark.parametrize(
    "entries, coords",
    [
        ({"tt": "2", "tx": "0.5", "xy": "1", "yy": "3"}, ()),
        ({"tt": "exp(x^2)", "xy": "1"}, (X,)),
        ({"tt": "exp(2*x)", "xy": "1", "yy": "t^2"}, (T, X)),
        ({"tt": "exp(2*x)+y^2", "xy": "1", "yy": "t^2"}, (T, X, Y)),
    ],
    ids=["constant", "x", "t and x", "t, x and y"],
)
def test_sequence_over_the_metric_coordinates_matches_all_three(entries, coords):
    def metric(suffix):
        matrix = [[parse("0")] * 3 for _ in range(3)]
        for slot, text in entries.items():
            i, j = sorted("txy".index(c) for c in slot)
            matrix[i][j] = parse(text + suffix)
        return MetricField.from_matrix(matrix)

    g, forced = metric(""), metric(" + 0*t + 0*x + 0*y")
    assert (g.coords, forced.coords) == (coords, (T, X, Y))
    points = [(0.4, 0.3, -0.5), (1.1, -0.2, 0.7), (0.8, 0.6, 0.2)]
    for got, want in zip(nabla_riemann_sequence(g, points, 4), nabla_riemann_sequence(forced, points, 4), strict=True):
        scale = max(1.0, float(np.abs(want.components).max()))
        np.testing.assert_allclose(got.components, want.components, rtol=0, atol=1e-12 * scale)


# --- nabla^k P and its Kulkarni-Nomizu expansion ---------------------------------


def _kulkarni_nomizu_einsum(p, g):
    """R_{ijkl;V} = P_{il;V} g_jk + P_{jk;V} g_il - P_{ik;V} g_jl - P_{jl;V} g_ik,
    with a leading point axis on both: the reference for the matmul expansion."""
    t = np.einsum("zil...,zjk->zijkl...", p, g)
    t = t - t.swapaxes(1, 2)
    return t - t.swapaxes(3, 4)


# every P rank an order-8 verify reaches, on up to 3^10 entries per test
KN_CASES = [
    (rank, batch) for batch in ((1,), (3,), (2, 3), (33,)) for rank in range(2, 11) if np.prod(batch) * 3**rank <= 3**10
]


@pytest.mark.parametrize("rank, batch", KN_CASES)
def test_kulkarni_nomizu_matches_the_einsum_formula(rank, batch):
    rng = np.random.default_rng(rank * 100 + len(batch) * 10 + batch[-1])
    g = rng.normal(size=batch + (3, 3))
    g = g + g.swapaxes(-1, -2)
    p = rng.normal(size=batch + (3,) * rank)
    p = p + np.swapaxes(p, len(batch), len(batch) + 1)  # nabla^k P is symmetric in its first two slots
    got = kulkarni_nomizu(TensorAtPoint(2, g), [TensorAtPoint(rank, p)])[0]
    n = int(np.prod(batch))
    want = _kulkarni_nomizu_einsum(p.reshape((n,) + (3,) * rank), g.reshape(n, 3, 3)).reshape(got.components.shape)
    assert got.rank == rank + 2 and got.components.shape == batch + (3,) * (rank + 2)
    np.testing.assert_allclose(got.components, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


def test_non_finite_curvature_is_an_overflow_without_numpy_warnings():
    import warnings

    # Gamma^t_yy = -t e^{-x} 1e350 has a t-derivative out of range at t = 0
    zero = parse("0")
    g = MetricField.from_matrix(
        [[parse("exp(x)*1e-200"), zero, zero], [zero, zero, parse("1")], [zero, parse("1"), parse("1e150*t^2")]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^math range error$"):
            nabla_schouten_sequence(g, [(0.0, 0.55, 0.0), (0.0, 1.0, 0.0)], 2)


# --- the box of directions a derivative slot runs over ---------------------------


def _custom(entries):
    matrix = [[parse("0")] * 3 for _ in range(3)]
    for slot, text in entries.items():
        i, j = sorted("txy".index(c) for c in slot)
        matrix[i][j] = parse(text)
    return MetricField.from_matrix(matrix)


BOX_CASES = [
    (family_f_metric(parse("1/x")), (T, X), [(0.3, 0.6, -0.2), (0.0, 1.1, 0.4), (-0.5, 1.7, 0.0)]),
    (family_h_metric(parse("exp(t) + t^4")), (T, X), [(0.6, 0.3, -0.2), (1.1, 0.0, 0.4), (-0.4, 1.7, 0.0)]),
    (_custom({"tt": "exp(x^2)", "xy": "1"}), (T, X), [(0.4, 0.3, -0.5), (1.1, -0.2, 0.7), (0.8, 0.6, 0.2)]),
    (_custom({"tt": "exp(2*x)", "xy": "1", "yy": "t^2"}), (T, X, Y), [(0.4, 0.3, -0.5), (1.1, -0.2, 0.7), (0.8, 0.6, 0.2)]),
    (_custom({"tt": "exp(2*x)+y^2", "xy": "1", "yy": "t^2"}), (T, X, Y), [(0.4, 0.3, -0.5), (1.1, -0.2, 0.7)]),
    (_custom({"tt": "2", "tx": "0.5", "xy": "1", "yy": "3"}), (), [(0.4, 0.3, -0.5), (1.1, -0.2, 0.7)]),
]
BOX_IDS = ["f 1/x", "h", "custom in x", "custom in t and x", "custom in t, x and y", "constant"]


@pytest.mark.parametrize("g, dirs, points", BOX_CASES, ids=BOX_IDS)
def test_box_sequence_equals_the_recursion_over_all_three_directions(monkeypatch, g, dirs, points):
    from curvhom import geometry

    assert christoffel(g, points, 7).dirs == dirs
    g0, box = nabla_schouten_sequence(g, points, 6)
    r_box = nabla_riemann_sequence(g, points, 6)
    assert [t.supports for t in box] == [((T, X, Y),) * 2 + (dirs,) * k for k in range(7)]
    monkeypatch.setattr(geometry.ConnectionJet, "dirs", property(lambda conn: (T, X, Y)))
    g0_full, full = nabla_schouten_sequence(g, points, 6)
    np.testing.assert_array_equal(g0.components, g0_full.components)
    for got, want in [(a.dense(), b.components) for a, b in zip(box, full, strict=True)] + [
        (a.components, b.components) for a, b in zip(r_box, nabla_riemann_sequence(g, points, 6), strict=True)
    ]:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max(initial=0.0))


def test_box_sequence_batch_matches_batches_of_one():
    # tt = 1 + x^9 has every metric jet of order < 9 flat at x = 0, so that
    # point alone has the box (x) and the batch the box (t, x)
    g = _custom({"tt": "1 + x^9", "xy": "1"})
    pts = [(0.2, 0.0, 0.1), (0.0, 0.5, 0.0), (-0.3, 0.9, 0.4)]
    g0, batched = nabla_schouten_sequence(g, pts, 6)
    assert batched[1].supports[2] == (T, X)
    for i, p in enumerate(pts):
        g0_alone, alone = nabla_schouten_sequence(g, p, 6)
        assert alone[1].supports[2] == ((X,) if i == 0 else (T, X))
        np.testing.assert_array_equal(g0.components[i], g0_alone.components)
        for a, b in zip(batched, alone, strict=True):
            want = b.dense()
            np.testing.assert_allclose(a.dense()[i], want, rtol=0, atol=1e-15 * np.abs(want).max(initial=0.0))


def test_constant_metric_runs_on_the_empty_box():
    g = _custom({"tt": "2", "xy": "1"})
    g0, seq = nabla_schouten_sequence(g, [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)], 4)
    assert [t.components.shape for t in seq] == [(2, 3, 3) + (0,) * k for k in range(5)]
    rs = kulkarni_nomizu(g0, seq)
    assert [t.components.shape for t in rs] == [(2, 3, 3, 3, 3) + (0,) * k for k in range(5)]
    assert all(np.abs(r.dense()).max() == 0.0 for r in rs)


# --- the jet-last recursion against the jet-first moveaxis recursion ---------------


def _reference_operators(gamma, order_out, coords, dirs):
    """Leibniz operators from field coefficients (q, a) to product coefficients
    (p, m, i), rebuilt at each order: (npts, p·m·i, q·a) for the first two
    slots and the same over dirs for a derivative slot."""
    from curvhom import jets

    a_pos, b_pos, out_pos, coef, _ = jets.product_table(order_out, coords)
    n, d, dirs = jets.table_size(order_out, coords), len(dirs), list(dirs)
    npts = gamma.shape[1]
    w = np.zeros((npts, n, d, 3, n, 3))
    w[:, out_pos, :, :, b_pos] = coef[:, None, None, None, None] * gamma[a_pos][:, :, :, dirs].transpose(0, 1, 3, 4, 2)
    box = w[:, :, :, dirs][..., dirs]
    return w.reshape(npts, n * d * 3, n * 3), box.reshape(npts, n * d * d, n * d)


def _reference_step(field, order_in, ws, coords, dirs):
    """One covariant derivative of a jet-first field [q, pt, 3, 3, d, ..., d]:
    each slot moved next to the point axis for its Gamma matmul and back."""
    import math

    from curvhom import jets

    n_out = jets.table_size(order_in - 1, coords)
    npts = field.shape[1]
    out = np.zeros((n_out,) + field.shape[1:] + (len(dirs),))
    for r, c in enumerate(dirs):
        if c in coords:
            out[..., r] = field[jets.shift_table(order_in, c, coords)]
    lower = field[:n_out]
    for s, size in enumerate(field.shape[2:]):
        if s == 1:
            continue
        moved = np.moveaxis(lower, (1, 2 + s), (0, 2))  # [pt, q, a, other slots]
        rest = moved.shape[3:]
        corr = ws[s > 0] @ moved.reshape(npts, n_out * size, math.prod(rest))
        corr = corr.reshape((npts, n_out, len(dirs), size) + rest)
        corr = np.moveaxis(corr, (0, 2, 3), (1, -1, 2 + s))  # [p, pt, .., i at slot s, .., m]
        if s == 0:
            corr = corr + corr.swapaxes(2, 3)
        out -= corr
    return out


def _reference_schouten_sequence(g, points, kmax):
    """[P, nabla P, ..., nabla^kmax P] on the box, by the jet-first recursion."""
    from curvhom.geometry import _schouten_jets

    conn = christoffel(g, points, kmax + 1)
    field = _schouten_jets(conn, kmax)
    seq = [field[0]]
    for order_in in range(kmax, 0, -1):
        ws = _reference_operators(conn.gamma, order_in - 1, conn.coords, conn.dirs)
        field = _reference_step(field, order_in, ws, conn.coords, conn.dirs)
        seq.append(field[0])
    return seq


@pytest.mark.parametrize("g, dirs, points", BOX_CASES, ids=BOX_IDS)
def test_jet_last_recursion_equals_the_moveaxis_recursion(g, dirs, points):
    _, got = nabla_schouten_sequence(g, points, 6)
    want = _reference_schouten_sequence(g, points, 6)
    for k, (a, b) in enumerate(zip(got, want, strict=True)):
        assert a.components.shape == b.shape == (len(points), 3, 3) + (len(dirs),) * k
        np.testing.assert_allclose(a.components, b, rtol=0, atol=1e-14 * np.abs(b).max(initial=0.0))


@pytest.mark.parametrize("g, dirs, points", BOX_CASES, ids=BOX_IDS)
def test_jet_last_recursion_batch_equals_batches_of_one(g, dirs, points):
    _, batched = nabla_schouten_sequence(g, points, 6)
    for i, p in enumerate(points):
        _, alone = nabla_schouten_sequence(g, p, 6)
        for a, b in zip(batched, alone, strict=True):
            want = b.dense()
            np.testing.assert_allclose(a.dense()[i], want, rtol=0, atol=1e-14 * np.abs(want).max(initial=0.0))


@pytest.mark.parametrize(
    "entries, coords",
    [
        ({"tt": "exp(x^2)", "xy": "1"}, (X,)),
        ({"tt": "exp(2*x)", "xy": "1", "yy": "t^2"}, (T, X)),
        ({"tt": "exp(2*x)+y^2", "xy": "1", "yy": "t^2"}, (T, X, Y)),
    ],
    ids=["x", "t and x", "t, x and y"],
)
def test_cut_gamma_operator_equals_a_fresh_build_at_every_order(entries, coords):
    from curvhom import jets
    from curvhom.geometry import _cut, _gamma_operators

    top = 5
    conn = christoffel(_custom(entries), [(0.4, 0.3, -0.5), (1.1, -0.2, 0.7)], top + 1)
    assert conn.coords == coords
    ops = _gamma_operators(conn.gamma, top, conn.coords, conn.dirs)
    for order in range(top + 1):
        n = jets.table_size(order, coords)
        fresh = _gamma_operators(conn.gamma, order, conn.coords, conn.dirs)
        assert fresh[0].shape[2] == n
        for cut, built in zip(ops, fresh, strict=True):
            np.testing.assert_array_equal(_cut(cut, n), _cut(built, n))


@pytest.mark.parametrize(
    "npts, kmax, coords, d, fits",
    [
        (1, 16, (1,), 2, True),   # 81 (2^17 - 1) entries of curvature
        (1, 17, (1,), 2, False),
        (33, 11, (1,), 2, True),
        (33, 12, (1,), 2, False),
        (1, 1000, (1,), 1, True),  # one direction: 81 (k + 1) and 9 (k - 1)^2
        (1, 1400, (1,), 1, False),
        (1, 10**9, (), 0, True),  # a constant metric: no derivative slot, one jet coefficient
        (1, 10, (0, 1, 2), 3, True),
        (1, 12, (0, 1, 2), 3, False),
        (2, 200, (0, 1), 1, False),  # the Gamma operator: 9 n^2 with n = 20100 coefficients
    ],
)
def test_array_budget_counts_the_curvature_box_and_the_gamma_operator(npts, kmax, coords, d, fits):
    from curvhom.geometry import _require_size

    if fits:
        _require_size(npts, kmax, coords, d)
    else:
        with pytest.raises(ValueError, match="needs an array of more than"):
            _require_size(npts, kmax, coords, d)


@pytest.mark.parametrize("metric, dirs, points", BOX_CASES[:5], ids=BOX_IDS[:5])
def test_one_matmul_expansion_equals_the_expansion_of_each_order(metric, dirs, points):
    g0, seq = nabla_schouten_sequence(metric, points, 5)
    rs = kulkarni_nomizu(g0, seq)
    assert len(rs) == 6 and [r.supports for r in rs] == [(AXES,) * 4 + p.supports[2:] for p in seq]
    for r, p in zip(rs, seq):
        alone = kulkarni_nomizu(g0, [p])[0]
        want = _kulkarni_nomizu_einsum(p.components, g0.components)
        np.testing.assert_allclose(r.components, alone.components, rtol=0, atol=1e-15 * np.abs(want).max())
        np.testing.assert_allclose(r.components, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_curvature_sequence_indexes_and_slices_its_columns():
    from curvhom.geometry import CurvatureSequence

    rng = np.random.default_rng(5)
    tails = [(), ((0, 1),), ((0, 1), (0, 1)), ((0, 1, 2),) * 2]
    tensors = [TensorAtPoint(4 + len(t), rng.normal(size=(2,) + (3,) * 4 + tuple(map(len, t))), (AXES,) * 4 + t) for t in tails]
    seq = CurvatureSequence.of(tensors)
    assert seq.entries.shape == (2, 81, 1 + 2 + 4 + 9) and seq.bounds == [0, 1, 3, 7, 16]
    assert seq.owner.tolist() == [0, 1, 1, 2, 2, 2, 2] + [3] * 9
    assert CurvatureSequence.of(seq) is seq
    for k, t in enumerate(tensors):
        for got in (seq[k], seq[k - len(tensors)], list(seq)[k]):
            assert got.rank == t.rank and got.supports == t.supports
            np.testing.assert_array_equal(got.components, t.components)
    middle = seq[1:3]
    assert len(middle) == 2 and middle.tails == seq.tails[1:3]
    np.testing.assert_array_equal(middle[1].components, tensors[2].components)
    assert len(seq[3:1]) == 0
    with pytest.raises(IndexError):
        seq[4]
    with pytest.raises(ValueError, match="consecutive"):
        seq[::2]
    one = CurvatureSequence(seq.entries[:1], seq.tails)  # one point, no point axis
    assert one[3].components.shape == (3,) * 6


# --- explicit symmetries: a linear phi whose dphi carries nabla^k R at P onto nabla^k R at phi(P) ----


def _carried_deviation(g, p, dphi, factor, kmax=4):
    """Per order k <= kmax, max |dphi^* nabla^k R(phi(P)) - factor nabla^k R(P)| over the
    largest |nabla^k R(P)|; phi is linear, so phi(P) = dphi P."""
    here = nabla_riemann_sequence(g, p, kmax)
    there = pullback(nabla_riemann_sequence(g, dphi @ np.asarray(p), kmax), Frame(dphi))
    scales = [float(np.abs(a.components).max()) for a in here]
    assert min(scales) > 0.0  # every order is nonzero, so the check is not vacuous
    return [float(np.abs(b.dense() - factor * a.components).max()) / s for a, b, s in zip(here, there, scales)]


@pytest.mark.parametrize("c", [2.0, 2.5615528128088303])
def test_log_profile_flow_is_an_isometry(c):
    # f = c log x: phi(t, x, y) = (lam^-c t, lam x, y / lam) keeps g = x^(2c) dt^2 + 2 dx dy
    lam = 1.7
    g = family_f_metric(parse(f"{c!r}*log(x)"))
    assert max(_carried_deviation(g, (0.3, 0.8, -0.4), np.diag([lam**-c, lam, 1.0 / lam]), 1.0)) <= 1e-10


def test_cubic_h_flow_is_a_homothety():
    # h = t^3: phi(t, x, y) = (lam t, lam^-1/2 x, lam^5/2 y) pulls g back to lam^2 g
    lam = 2.0
    g = family_h_metric(parse("t^3"))
    assert max(_carried_deviation(g, (0.5, 0.3, -0.2), np.diag([lam, lam**-0.5, lam**2.5]), lam**2)) <= 1e-10
