import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvhom.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_f_family_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "f", "--function", "exp(x)",
        "--order", "4", "--grid", "x=0:1:9", "--format", "text",
    )
    assert code == EXIT_OK
    assert "result: pass" in out


def test_verify_h_family_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "h", "--function", "t^3",
        "--order", "2", "--grid", "t=1:2:9", "--format", "text",
    )
    assert code == EXIT_OK


def test_verify_json_reports_per_order(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "f", "--function", "x^2",
        "--order", "3", "--grid", "x=0.1:1:5",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [v["name"] for v in payload["verdicts"]] == [f"order_{k}" for k in range(4)]
    assert set(payload) == {"config", "verdicts", "invariants", "exclusions", "tool_version"}


def test_malformed_function_exits_2(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "f", "--function", "x + * 2",
        "--order", "2", "--grid", "x=0:1:3",
    )
    assert code == EXIT_CONFIG
    assert "offset 4" in err


def test_h_verify_order_beyond_closed_forms_exits_2(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "h", "--function", "t^3",
        "--order", "3", "--grid", "t=1:2:3",
    )
    assert code == EXIT_CONFIG
    assert "order 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--family", "f", "--function", "exp(x)"),  # missing grid
        ("classify", "--family", "f", "--function", "exp(x)", "--grid", "x=0:1:0"),
        ("classify", "--family", "f", "--function", "exp(x)", "--grid", "z=0:1:3"),
        ("classify", "--family", "q", "--function", "exp(x)", "--grid", "x=0:1:3"),
        ("classify", "--family", "f", "--grid", "x=0:1:3"),  # missing function
        ("invariants", "--family", "custom", "--metric", "tt=1", "--grid", "x=0:1:3"),
    ],
)
def test_config_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_2(capsys, tol):
    code, out, err = run(
        capsys, "classify", "--family", "f", "--function", "exp(x)",
        "--grid", "x=0:1:5", "--order", "1", "--tol", tol,
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "tol must be positive and finite" in err


def test_classify_infinite_grid_bound_exits_2(capsys):
    code, out, err = run(
        capsys, "classify", "--family", "f", "--function", "exp(x)", "--grid", "x=0:inf:3",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "grid bounds must be finite" in err


def test_verify_nan_grid_bound_exits_2(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "f", "--function", "exp(x)", "--grid", "x=0:nan:3",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "grid bounds must be finite" in err


def test_classify_emits_schema_report(capsys):
    code, out, _ = run(
        capsys, "classify", "--family", "h", "--function", "t^3",
        "--order", "2", "--grid", "t=1:2:9",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    for key in ("config", "verdicts", "invariants", "exclusions", "tool_version"):
        assert key in payload
    statuses = {v["name"]: v["status"] for v in payload["verdicts"]}
    assert statuses["CH_0"] == "pass"
    assert statuses["SCH_1(1,3)"] == "pass"
    assert statuses["SCH_2(1,3)"] == "fail"


def test_classify_output_is_byte_stable(capsys):
    argv = (
        "classify", "--family", "f", "--function", "exp(x)",
        "--order", "2", "--grid", "x=0:1:5",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_classify_hypothesis_violated_everywhere_exits_3(capsys):
    code, out, _ = run(
        capsys, "classify", "--family", "h", "--function", "0.000000001*t^2",
        "--order", "1", "--grid", "t=0:1:5",
    )
    assert code == EXIT_HYPOTHESIS


def test_invariants_csv(capsys):
    code, out, _ = run(
        capsys, "invariants", "--family", "h", "--function", "t^3",
        "--order", "2", "--grid", "t=2:2:1", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["xi"]) == pytest.approx(0.25, rel=1e-9)
    assert float(row["xi_X"]) == pytest.approx(0.5, rel=1e-9)


def test_invariants_json_f_family(capsys):
    code, out, _ = run(
        capsys, "invariants", "--family", "f", "--function", "exp(x)",
        "--order", "1", "--grid", "x=0:0:1",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    row = payload["invariants"][0]
    assert row["xi"] == pytest.approx(9.0, rel=1e-9)
    assert row["sch_ratio"] == pytest.approx(-1.125, rel=1e-9)


def test_invariants_all_hypothesis_violated_exits_3(capsys):
    code, out, _ = run(
        capsys, "invariants", "--family", "f", "--function", "0",
        "--order", "1", "--grid", "x=0:1:3",
    )
    assert code == EXIT_HYPOTHESIS


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# homogeneity run\n"
        "family = h\n"
        "function = t^3\n"
        "order = 2\n"
        "grid = t=1:2:5\n"
        "tol = 1e-6\n"
        "format = json\n"
    )
    code, out, _ = run(capsys, "classify", "--config", str(cfg))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["config"]["family"] == "h"
    assert payload["config"]["grid"] == {"t": "1:2:5"}


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = h\nfunction = t^3\norder = 2\ngrid = t=1:2:5\n")
    code, out, _ = run(capsys, "classify", "--config", str(cfg), "--function", "exp(t)")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["function"] == "exp(t)"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = h\nfunction = t^3\ngrid = t=1:2:5\nbogus = 1\n")
    code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "bogus" in err


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "classify", "--family", "h", "--function", "exp(t)",
        "--order", "1", "--grid", "t=0:1:3", "--output", str(dest),
    )
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(dest.read_text())
    assert payload["tool_version"]


def test_custom_metric_classify(capsys):
    code, out, _ = run(
        capsys, "classify", "--family", "custom",
        "--metric", "tt=1", "--metric", "xx=1", "--metric", "yy=1",
        "--order", "1", "--grid", "x=0:1:3",
    )
    assert code == EXIT_OK
    assert json.loads(out)["degenerate"] is True


def _custom_report(capsys, *metric):
    code, out, _ = run(
        capsys, "classify", "--family", "custom", *(a for m in metric for a in ("--metric", m)),
        "--order", "1", "--grid", "x=0:1:3",
    )
    report = json.loads(out)
    # a curved custom metric gets no verdicts (exit 3); a flat one passes vacuously
    assert code == (EXIT_OK if report["degenerate"] else EXIT_HYPOTHESIS)
    return report


def test_custom_flatness_is_unchanged_by_a_constant_rescaling(capsys):
    # tt = exp(2*x - 40) is tt = exp(2*x) after t -> e^20 t: both are curved,
    # with the same (1,3) curvature operator
    small = _custom_report(capsys, "tt=exp(2*x - 40)", "xy=1")
    plain = _custom_report(capsys, "tt=exp(2*x)", "xy=1")
    assert small["degenerate"] is False
    assert plain["degenerate"] is False
    assert small["notes"] == plain["notes"]
    assert small["verdicts"] == plain["verdicts"]
    flat = _custom_report(capsys, "tt=1", "xy=1")
    assert flat["degenerate"] is True
    assert flat["notes"] == ["degenerate: zero curvature"]


def test_verify_failure_exit_code(monkeypatch, capsys):
    # force a mismatch by patching the oracle the family table calls
    import importlib

    import numpy as np
    from curvhom.geometry import CurvatureSequence
    from curvhom.tensor import TensorAtPoint

    def fake_oracle(k):
        comp = np.zeros((3,) * (4 + k))
        comp[(0, 1, 1, 0) + (0,) * k] = 1.0
        return TensorAtPoint(4 + k, comp)

    def fake_oracles(fn, p, kmax, dirs):
        return CurvatureSequence.of([fake_oracle(k) for k in range(kmax + 1)])

    monkeypatch.setattr(importlib.import_module("curvhom.classify"), "family_h_oracles", fake_oracles)
    code, out, _ = run(
        capsys, "verify", "--family", "h", "--function", "t^3",
        "--order", "1", "--grid", "t=1:2:3", "--format", "text",
    )
    assert code == EXIT_CHECK_FAILED


def _excluded_points(out):
    return {tuple(e["point"]) for e in json.loads(out)["exclusions"]}


def test_classify_excludes_point_outside_domain(capsys):
    # log(0) is undefined; the other points are flat (delta = 0 for f = log x)
    code, out, _ = run(capsys, "classify", "--family", "f", "--function", "log(x)", "--grid", "x=0:1:5")
    assert code == EXIT_OK
    assert (0.0, 0.0, 0.0) in _excluded_points(out)


def test_classify_excludes_overflowing_points(capsys):
    # exp(2 exp(x^2)) overflows at x = 15 and x = 30
    code, out, err = run(capsys, "classify", "--family", "f", "--function", "exp(x^2)", "--grid", "x=0:30:3")
    assert code in (EXIT_OK, EXIT_HYPOTHESIS)
    excluded = _excluded_points(out)
    assert {(0.0, 15.0, 0.0), (0.0, 30.0, 0.0)} <= excluded
    assert (0.0, 0.0, 0.0) not in excluded


def test_verify_overflow_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--family", "f", "--function", "exp(x^2)", "--grid", "x=0:30:3")
    assert code == EXIT_CONFIG
    assert "overflow" in err


def test_large_constant_in_f_profile_is_not_a_singular_frame(capsys):
    # f = 30 + x is f = x after t -> e^30 t; the adapted frame's det is e^{-f}
    for command in ("classify", "invariants"):
        code, _, err = run(capsys, command, "--family", "f", "--function", "30 + x", "--grid", "x=0:1:3")
        assert code == EXIT_OK, err


def test_verify_small_metric_determinant_passes(capsys):
    # f = x - 20: |det g| = e^{2x - 40} is about 4e-18, yet the metric is f = x's
    code, out, err = run(
        capsys, "verify", "--family", "f", "--function", "x - 20", "--grid", "x=0:1:3", "--format", "text"
    )
    assert code == EXIT_OK, err
    assert "result: pass" in out


def _exclusion_reasons(out):
    return {tuple(e["point"]): e["reason"] for e in json.loads(out)["exclusions"]}


def test_invariants_excludes_point_outside_domain(capsys):
    # log(0) is undefined; at the other points delta = 0 for f = log x
    code, out, _ = run(capsys, "invariants", "--family", "f", "--function", "log(x)", "--grid", "x=0:1:5")
    assert code == EXIT_HYPOTHESIS
    reasons = _exclusion_reasons(out)
    assert len(reasons) == 5
    assert reasons[(0.0, 0.0, 0.0)] == (
        "cannot evaluate the metric (DomainError): log of nonpositive value 0.0 in 'log(x)'"
    )
    # grid points print as plain floats, not numpy reprs
    assert reasons[(0.0, 0.25, 0.0)] == "|delta| = 0.00e+00 below floor at (0.0, 0.25, 0.0)"
    row = json.loads(out)["invariants"][0]
    assert row["delta"] is None and row["xi"] is None


def test_custom_classify_excludes_point_outside_domain(capsys):
    code, out, _ = run(
        capsys, "classify", "--family", "custom", "--metric", "tt=log(x)", "--metric", "xy=1",
        "--grid", "x=0:1:3",
    )
    assert code == EXIT_HYPOTHESIS
    reasons = _exclusion_reasons(out)
    assert reasons[(0.0, 0.0, 0.0)].startswith("cannot evaluate the metric (DomainError)")
    assert reasons[(0.0, 1.0, 0.0)].startswith("cannot evaluate the metric (DegenerateMetricError)")  # log 1 = 0
    assert reasons[(0.0, 0.5, 0.0)].startswith("no adapted frame construction")


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} in a JSON report")

    return json.loads(text, parse_constant=refuse)


# each finite grid point overflows inside the expression: x * 1e300 * 1e300 = inf
@pytest.mark.parametrize("function", [f"{fn}(x*1e300*1e300)" for fn in ("cos", "exp", "log", "sqrt")])
def test_overflow_inside_an_expression_excludes_the_points(capsys, function):
    base = ("--family", "f", "--function", function, "--grid", "x=0.1:1:3")
    for command in ("classify", "invariants"):
        code, out, _ = run(capsys, command, *base)
        assert code == EXIT_HYPOTHESIS
        reasons = [e["reason"] for e in _strict_json(out)["exclusions"]]
        assert reasons == ["cannot evaluate the metric (OverflowError): math range error"] * 3
    code, out, err = run(capsys, "verify", *base)
    assert code == EXIT_CONFIG
    assert out == "" and "numeric overflow" in err


def _expressions(variables):
    constants = ["0", "1", "2", "0.5", "1e-9", "700", "1e150", "1e300", "(1e300*1e300)"]
    leaf = st.one_of(st.sampled_from(constants), st.sampled_from(variables))

    def extend(inner):
        return st.one_of(
            st.builds("-{}".format, inner),
            st.builds("{}({})".format, st.sampled_from(["exp", "log", "sin", "cos", "sqrt", "abs"]), inner),
            st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("({})^{}".format, inner, st.sampled_from(["2", "3", "-1", "0", "0.5", "(1/2)"])),
        )

    return st.recursive(leaf, extend, max_leaves=6)


@st.composite
def _cli_argv(draw):
    family = draw(st.sampled_from(["f", "h", "custom"]))
    coord = {"f": "x", "h": "t"}.get(family) or draw(st.sampled_from("txy"))
    variables = [coord] * 3 + ["t", "x", "y"]  # a wrong coordinate is a config error
    argv = [draw(st.sampled_from(["verify", "classify", "invariants"])), "--family", family]
    argv += ["--order", str(draw(st.integers(0, 3)))]
    if family == "custom":
        slots = draw(st.lists(st.sampled_from(["tt", "tx", "ty", "xx", "xy", "yy"]), min_size=1, max_size=3, unique=True))
        argv += [f"--metric={slot}={draw(_expressions(variables))}" for slot in slots]
    else:
        argv.append(f"--function={draw(_expressions(variables))}")
    lo, hi = (draw(st.sampled_from([-1e300, -2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 1e150, 1e300])) for _ in range(2))
    argv += ["--grid", f"{coord}={lo}:{hi}:{draw(st.integers(1, 5))}"]
    return argv


@given(_cli_argv())
@example(["invariants", "--family", "f", "--order", "1", "--function=cos(x*1e300*1e300)", "--grid", "x=0.5:1.0:2"])
@settings(max_examples=50, deadline=None)
def test_random_commands_exit_within_contract(argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_HYPOTHESIS)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():  # every command here reports JSON, the default format
        _strict_json(out.getvalue())


# ---------------------------------------------------------------------------
# verify's engine-vs-oracle comparison


def _compare_reference(engine, oracle, gscale):
    """The comparison on full copies of engine and oracle divided by each point's scale."""
    scale = gscale.reshape((-1,) + (1,) * (engine.ndim - 1))
    engine, oracle = engine / scale, oracle / scale
    nz = oracle != 0.0
    rel = 0.0
    if nz.any():
        rel = float(np.abs((engine[nz] - oracle[nz]) / oracle[nz]).max())
    absdev = 0.0
    if (~nz).any():
        absdev = float(np.abs(engine[~nz]).max())
    return rel, absdev


@pytest.mark.parametrize("npts, rank", [(1, 4), (33, 4), (1, 12), (3, 12)])
@pytest.mark.parametrize("oracle_kind", ["all zero", "all nonzero", "mixed"])
def test_compare_is_bit_identical_to_dividing_full_copies(npts, rank, oracle_kind):
    from curvhom.cli import _compare, _nonzeros
    from curvhom.geometry import CurvatureSequence
    from curvhom.tensor import AXES

    rng = np.random.default_rng(npts * 100 + rank)
    shape = (npts,) + (3,) * rank
    gscale = 1.0 + np.arange(npts) * 0.37 + rng.random(npts)  # distinct, >= 1
    gscale[0] = 1.0
    oracle = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    if oracle_kind == "all zero":
        oracle[...] = 0.0
    elif oracle_kind == "mixed":
        oracle[rng.random(shape) < 0.7] = 0.0
        oracle[-1] = 0.0  # one point with only zeros (the only point when npts = 1)
        oracle[0, (0,) * rank] = 3.0
    noise = rng.normal(size=shape) * 10.0 ** rng.integers(-16, -9, size=shape)
    engine = np.where(oracle != 0.0, oracle * (1 + noise), noise)
    seq = CurvatureSequence(engine.reshape(npts, 81, -1), ((AXES,) * (rank - 4),), (npts,))
    before = engine.copy()
    rel, absdev = _compare(seq, _nonzeros(CurvatureSequence(oracle.reshape(npts, 81, -1), seq.tails, (npts,)), npts), gscale)
    np.testing.assert_array_equal(engine, before)  # restored after zeroing the oracle-nonzero entries
    got = (float(rel[0]), float(absdev[0]))
    assert got == _compare_reference(engine, oracle, gscale)
    assert (got[0] > 0.0) == (oracle_kind != "all zero")
    assert (got[1] > 0.0) == (oracle_kind != "all nonzero")
    assert np.copysign(1.0, got[1]) == 1.0  # a report prints 0.0, not -0.0


@pytest.mark.parametrize("npts", [1, 2, 5])
def test_compare_reads_every_order_in_one_pass(npts):
    from curvhom.cli import _compare, _nonzeros
    from curvhom.geometry import CurvatureSequence
    from curvhom.tensor import AXES, TensorAtPoint

    rng = np.random.default_rng(npts)
    gscale = 1.0 + rng.random(npts) * 3.0
    engines, oracles = [], []
    for k, kind in enumerate(["mixed", "all zero", "all nonzero", "mixed", "mixed", "mixed"]):
        shape = (npts,) + (3,) * 4 + (2,) * k
        oracle = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        if kind == "all zero":
            oracle[...] = 0.0
        elif kind == "mixed":
            oracle[rng.random(shape) < 0.8] = 0.0
        noise = rng.normal(size=shape) * 10.0 ** rng.integers(-16, -9, size=shape)
        engines.append(np.where(oracle != 0.0, oracle * (1 + noise), noise))
        oracles.append(oracle)

    def joined(arrays):
        return CurvatureSequence.of([TensorAtPoint(a.ndim - 1, a, (AXES,) * 4 + ((0, 1),) * (a.ndim - 5)) for a in arrays])

    rel, absdev = _compare(joined(engines), _nonzeros(joined(oracles), npts), gscale)
    want = [_compare_reference(e, o, gscale) for e, o in zip(engines, oracles)]
    assert list(zip(rel.tolist(), absdev.tolist())) == want
    for k, (e, o) in enumerate(zip(engines, oracles)):  # each order alone reads the same
        alone = _compare(joined([e]), _nonzeros(joined([o]), npts), gscale)
        assert (float(alone[0][0]), float(alone[1][0])) == want[k]
    # one closed form for every point broadcasts against the engine at each
    common = [o[:1] for o in oracles]
    rel, absdev = _compare(joined(engines), _nonzeros(joined(common), npts), gscale)
    want = [_compare_reference(e, np.broadcast_to(o, e.shape), gscale) for e, o in zip(engines, common)]
    assert list(zip(rel.tolist(), absdev.tolist())) == want


# ---------------------------------------------------------------------------
# overflow is an exclusion, not a warning


@pytest.mark.parametrize(
    "argv, code, reason",
    [
        (["invariants", "--family", "f", "--function", "cos(x*1e300*1e300)"], EXIT_HYPOTHESIS, "math range error"),
        (["verify", "--family", "f", "--function", "cos(x*1e300*1e300)"], EXIT_CONFIG, None),
        (
            ["classify", "--family", "custom", "--metric", "tt=cos(x*1e300*1e300)", "--metric", "xy=1"],
            EXIT_HYPOTHESIS,
            "math range error",
        ),
        # 1e200 times the flat tt=1, xy=1, whose report it gets: its det g
        # overflows, but the engine never forms it
        (
            ["classify", "--family", "custom", "--metric", "tt=1e200", "--metric", "xy=1e200"],
            EXIT_OK,
            ("--metric", "tt=1", "--metric", "xy=1"),
        ),
    ],
    ids=["invariants", "verify", "custom classify", "huge custom metric"],
)
def test_overflow_excludes_without_numpy_warnings(capsys, argv, code, reason):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, *argv, "--grid", "x=0.1:1:3")
    assert got == code
    if reason is None:
        assert out == "" and err == "config error: numeric overflow evaluating the function: math range error\n"
        return
    assert err == ""
    if isinstance(reason, tuple):  # the metric whose report this one must equal
        assert run(capsys, *argv[:3], *reason, "--grid", "x=0.1:1:3") == (code, out, err)
        return
    reasons = _exclusion_reasons(out)
    assert len(reasons) == 3
    for point, text in reasons.items():
        assert text == "cannot evaluate the metric (OverflowError): " + reason.format(point)


def test_metric_whose_inverse_overflows_is_excluded_without_numpy_warnings(capsys):
    import warnings

    # g_tt = 1e-309 is representable, but g^tt = 1e309 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(
            capsys, "classify", "--family", "custom", "--metric", "tt=1e-9/1e300", "--metric", "xy=1", "--grid", "x=0.1:1:3"
        )
    assert (got, err) == (EXIT_HYPOTHESIS, "")
    reasons = _exclusion_reasons(out)
    assert len(reasons) == 3
    for point, text in reasons.items():
        assert text == "cannot evaluate the metric (OverflowError): math range error"


def test_non_finite_curvature_is_excluded_without_numpy_warnings(capsys):
    import warnings

    # the metric and its inverse are in range, but d_t Gamma^t_yy = -1e350 e^{-x} is not
    argv = ["classify", "--family", "custom", "--metric", "tt=exp(x)*1e-200", "--metric", "xy=1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, *argv, "--metric", "yy=1e150*t^2", "--grid", "x=0.1:1:3", "--order", "2")
    assert (got, err) == (EXIT_HYPOTHESIS, "")
    report = _strict_json(out)
    assert report["degenerate"] is False
    assert report["notes"] == ["the metric cannot be evaluated at any sample point"]
    reasons = _exclusion_reasons(out)
    assert len(reasons) == 3
    for point, text in reasons.items():
        assert text == "cannot evaluate the metric (OverflowError): math range error"


def test_overflowing_delta_is_excluded_without_numpy_warnings(capsys):
    import warnings

    # f' = 1e300 squares out of range; the metric fails first at both points, for its own reason
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, "classify", "--family", "f", "--order", "0", "--function", "1e300*x",
                            "--grid=x=-1e300:-2:2")
    assert (got, err) == (EXIT_HYPOTHESIS, "")
    assert _exclusion_reasons(out) == {
        (0.0, -1e300, 0.0): "cannot evaluate the metric (OverflowError): math range error",
        (0.0, -2.0, 0.0): "cannot evaluate the metric (DegenerateMetricError): "
        "metric is degenerate at (0.0, -2.0, 0.0): |det| = 0.000e+00",
    }


# ---------------------------------------------------------------------------
# one argparse parser per process


def _outcome(argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_gives_the_results_of_a_fresh_one():
    from curvhom.cli import make_parser

    commands = [
        ["verify", "--family", "f", "--function", "exp(x)", "--order", "3", "--grid", "x=0:1:3", "--format", "text"],
        ["verify", "--family", "f", "--order"],  # argparse: --order needs a value
        ["classify", "--family", "f", "--function", "exp(x", "--grid", "x=0:1:3"],  # unparsable function
        ["classify", "--family", "h", "--function", "t^3", "--grid", "t=1:2:5"],
    ]
    in_turn = [_outcome(argv) for argv in commands]
    assert make_parser() is make_parser()
    fresh = []
    for argv in commands:
        make_parser.cache_clear()
        fresh.append(_outcome(argv))
    assert in_turn == fresh
    assert [code for code, _, _ in in_turn] == [EXIT_OK, EXIT_CONFIG, EXIT_CONFIG, EXIT_OK]


def test_oracle_entry_outside_the_engine_box_is_a_relative_deviation_of_one(monkeypatch, capsys):
    # the f engine runs its derivative slots over (t, x); an oracle entry
    # with a y slot meets a structural zero of the engine
    import importlib

    from curvhom.families import family_f_oracles

    def fake_oracles(fn, p, kmax, dirs):
        out = family_f_oracles(fn, p, kmax, (0, 1, 2))
        for t in out[1:]:
            t.components[(..., 1, 0, 0, 1) + (2,) * (t.rank - 4)] = 1.0
        return out

    monkeypatch.setattr(importlib.import_module("curvhom.classify"), "family_f_oracles", fake_oracles)
    code, out, _ = run(capsys, "verify", "--family", "f", "--function", "1/x", "--order", "2", "--grid", "x=0.5:1:3")
    assert code == EXIT_CHECK_FAILED
    rel = [v["max_relative_deviation"] for v in json.loads(out)["verdicts"]]
    assert rel[0] < 1e-12 and rel[1:] == [1.0, 1.0]


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify", "--family", "f", "--order", "3"), EXIT_OK),
        (("classify", "--family", "f", "--order", "3"), EXIT_OK),
        (("invariants", "--family", "f", "--order", "3"), EXIT_HYPOTHESIS),
        (("verify", "--family", "h", "--order", "2"), EXIT_OK),
        (("classify", "--family", "h", "--order", "3"), EXIT_OK),
        (("invariants", "--family", "h", "--order", "3"), EXIT_HYPOTHESIS),
    ],
)
def test_zero_profile_runs_on_the_empty_box(capsys, argv, code):
    # a zero profile has no Christoffel symbols: the derivative slots hold no direction
    got, out, err = run(capsys, *argv, "--function", "0", "--grid", "x=0:1:3", "--grid", "t=0:1:2")
    assert (got, err) == (code, "")
    if argv[0] == "verify":
        assert all(v["status"] == "pass" for v in json.loads(out)["verdicts"])


def test_classify_leaves_numpy_ma_unimported():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import contextlib, io, sys\n"
        "from curvhom.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['classify', '--family', 'h', '--function', 't^3', '--order', '2', '--grid', 't=1:2:9'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_importing_the_cli_imports_no_dataclasses():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys\nbefore = set(sys.modules)\nimport curvhom.cli\nprint('dataclasses' in set(sys.modules) - before)\n"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# ---------------------------------------------------------------------------
# an order past the array budget is a config error before anything large is allocated


_BUDGET_PROBE = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))  # a missing guard fails here, not on the machine
from curvhom.cli import main
from curvhom.families import custom_metric
from curvhom.expr import parse
from curvhom.geometry import nabla_schouten_sequence
out = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    out.append((code, err.getvalue(), time.perf_counter() - start))
zero, one, ty = parse("0"), parse("1"), parse("t*y")
g = custom_metric([[parse("exp(x)"), zero, zero], [zero, one, ty], [zero, ty, parse("y^2")]])
assert g.coords == (0, 1, 2)
start = time.perf_counter()
try:
    nabla_schouten_sequence(g, (0.3, 0.5, 0.7), 40)
except ValueError as e:
    out.append((2, str(e), time.perf_counter() - start))
print(json.dumps(out))
"""


def test_order_past_the_array_budget_exits_2_at_once():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    argvs = [
        ["classify", "--family", "f", "--function", "exp(x)", "--order", "40", "--grid", "x=0:1:2"],
        ["verify", "--family", "f", "--function", "exp(x)", "--order", "40", "--grid", "x=0:1:2"],
        ["classify", "--family", "h", "--function", "t^3", "--order", "40", "--grid", "t=1:2:2"],
        ["classify", "--family", "f", "--function", "exp(x)", "--order", str(10**40), "--grid", "x=0:1:2"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _BUDGET_PROBE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)
    assert len(runs) == len(argvs) + 1  # and the library call on a metric in all three coordinates
    for code, err, seconds in runs:
        assert code == EXIT_CONFIG
        assert "needs an array of more than 16777216 entries" in err
        assert seconds < 1.0


# ---------------------------------------------------------------------------
# jet orders up to the largest whose factorial is a float


def test_jet_order_past_the_largest_float_factorial_exits_2_at_once(capsys):
    import math
    import time

    base = ("invariants", "--family", "f", "--function", "exp(x)", "--grid", "x=0:1:2")
    start = time.perf_counter()
    code, out, err = run(capsys, *base, "--order", "169")  # delta^(169) needs f to jet order 171
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: jet order 171 is above 170, the largest whose factorial is a float; lower the order\n"
    code, out, err = run(capsys, *base, "--order", "168")
    assert (code, err) == (EXIT_OK, "")
    for row in _strict_json(out)["invariants"]:
        x = row["x"]
        for k in (1, 50, 168):  # delta = e^x + e^(2x), so delta^(k) = e^x + 2^k e^(2x)
            assert row[f"delta_{k}"] == pytest.approx(math.exp(x) + 2.0**k * math.exp(2 * x), rel=1e-12)


def test_literal_past_the_float_range_is_excluded_without_numpy_warnings(capsys):
    import warnings

    # 1e400 reads as inf, which no operation flags; evaluating the literal is a math range error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "classify", "--family", "custom", "--metric", "tt=1e400", "--metric", "xy=1",
                             "--grid", "x=0.1:1:3")
    assert (code, err) == (EXIT_HYPOTHESIS, "")
    reasons = _exclusion_reasons(out)
    assert len(reasons) == 3
    assert set(reasons.values()) == {"cannot evaluate the metric (OverflowError): math range error"}


def test_grid_whose_span_overflows_exits_2(capsys):
    # finite bounds whose difference is not: np.linspace would make the points nan and inf
    code, out, err = run(capsys, "invariants", "--family", "f", "--function", "x", "--grid=x=-1e308:1e308:3")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: grid bounds must be finite, and so must their difference, in 'x=-1e308:1e308:3'\n"


def test_profile_literal_past_the_float_range_is_excluded_at_every_point(capsys):
    # the family metric is built as a tree around the parsed profile, so inf never goes through text
    for cmd in ("classify", "invariants"):
        code, out, err = run(capsys, cmd, "--family", "f", "--function", "1e400", "--grid", "x=0:1:2")
        assert (code, err) == (EXIT_HYPOTHESIS, "")
        reasons = [e["reason"] for e in json.loads(out)["exclusions"]]
        assert reasons == ["cannot evaluate the metric (OverflowError): math range error"] * 2


@pytest.mark.parametrize("cmd", ["classify", "invariants", "verify"])
@pytest.mark.parametrize("text", ["x^1e400", "x^(-1e400)", "sqrt(x)^1e400"])
def test_exponent_literal_past_the_float_range_is_a_math_range_error(capsys, cmd, text):
    # each spelling's exponent reads as inf, and evaluating that literal is a math range error
    code, out, err = run(capsys, cmd, "--family", "f", "--function", text, "--grid", "x=0.5:1:2")
    assert "Traceback" not in out + err
    if cmd == "verify":
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "config error: numeric overflow evaluating the function: math range error\n"
    else:
        assert (code, err) == (EXIT_HYPOTHESIS, "")
        reasons = [e["reason"] for e in json.loads(out)["exclusions"]]
        assert reasons == ["cannot evaluate the metric (OverflowError): math range error"] * 2


FORMATS = {"verify": ("json", "text"), "classify": ("json",), "invariants": ("json", "csv")}


@pytest.mark.parametrize("source", ["flag", "config file"])
@pytest.mark.parametrize(
    "cmd, fmt", [(cmd, fmt) for cmd, written in FORMATS.items() for fmt in ("json", "csv", "text", "xml") if fmt not in written]
)
def test_a_format_the_command_does_not_write_is_a_config_error(tmp_path, capsys, source, cmd, fmt):
    argv = [cmd, "--family", "f", "--function", "exp(x)", "--grid", "x=0:1:3"]
    if source == "flag":
        argv += ["--format", fmt]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"format = {fmt}\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"config error: {cmd} writes no format {fmt!r}")



@pytest.mark.parametrize("cmd, fmt", [(cmd, fmt) for cmd, written in FORMATS.items() for fmt in written])
def test_each_command_writes_its_formats(capsys, cmd, fmt):
    code, out, err = run(capsys, cmd, "--family", "f", "--function", "exp(x)", "--grid", "x=0:1:3", "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    if fmt == "json":
        assert json.loads(out)["config"]["format"] == "json"
    elif fmt == "csv":
        assert out.startswith("t,x,y,delta,")
    else:
        assert out.endswith("result: pass\n")


# ---------------------------------------------------------------------------
# a setting that the command or the family does not read is a config error

UNREAD = {  # a command that exits 0, and a setting it does not read
    "tol in verify": (["verify", "--family", "f", "--function", "exp(x)", "--order", "2", "--format", "text"], "tol", "1e-30"),
    "tol in invariants": (["invariants", "--family", "f", "--function", "exp(x)", "--format", "csv"], "tol", "5"),
    "metric in verify": (["verify", "--family", "f", "--function", "exp(x)", "--format", "text"], "metric", "tt=1"),
    "metric in classify f": (["classify", "--family", "f", "--function", "exp(x)"], "metric", "tt=1"),
    "function in custom": (["classify", "--family", "custom", "--metric", "tt=1", "--metric", "xy=1"], "function", "x^2"),
}


@pytest.mark.parametrize("source", ["flag", "config file"])
@pytest.mark.parametrize("argv, name, value", UNREAD.values(), ids=UNREAD.keys())
def test_a_setting_the_command_does_not_read_is_a_config_error(tmp_path, capsys, source, argv, name, value):
    argv = [*argv, "--grid", "x=0:1:3"]
    assert run(capsys, *argv)[0] == EXIT_OK
    if source == "flag":
        argv += [f"--{name}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {value}\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"config error: {name} is read by ")
    assert "Traceback" not in err


def test_function_text_that_starts_with_a_minus_sign(tmp_path, capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    base = ["classify", "--family", "f", "--grid", "x=0:1:3"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("function = -x\n")
    for how in (["--function=-x"], ["--config", str(cfg)]):
        code, out, err = run(capsys, *base, *how)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["config"]["function"] == "-x"
    # as a separate argument, argparse reads -x as an option
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "curvhom", *base, "--function", "-x"], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert "argument --function: expected one argument" in done.stderr
    assert "Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# the parser's nesting and depth limits, and the grid size, are config errors

DEEP = {
    "300 parentheses": "(" * 300 + "x" + ")" * 300,
    "a 3000-term chain": "+".join(["x"] * 3000),
    "1000 unary minuses": "-" * 1000 + "x",
    "300 calls": "exp(" * 300 + "x" + ")" * 300,
    "300 exponents": "x" + "^1" * 300,
}


@pytest.mark.parametrize("cmd", ["classify", "verify", "invariants"])
@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_nesting_past_the_parser_limits_exits_2(capsys, cmd, text):
    code, out, err = run(capsys, cmd, "--family", "f", f"--function={text}", "--grid", "x=0:1:3")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: cannot parse function: expression ")
    assert "Traceback" not in err


def test_nesting_past_the_limit_exits_2_from_a_fresh_process():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["classify", "--family", "f", "--function=" + "(" * 200 + "x" + ")" * 200, "--grid", "x=0:1:3"]
    done = subprocess.run([sys.executable, "-m", "curvhom", *argv], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert done.stderr == "config error: cannot parse function: expression nested more than 50 levels deep (at offset 50)\n"


def test_an_expression_at_both_parser_limits_runs_every_command(capsys):
    from curvhom.expr import MAX_DEPTH, MAX_NESTING

    # f = x, nested MAX_NESTING deep, in a tree MAX_DEPTH deep: x*1 then 2 * 99 more terms
    text = "(" * MAX_NESTING + "x*1" + "+x-x" * 99 + ")" * MAX_NESTING
    assert MAX_DEPTH == 2 + 2 * 99
    for cmd in ("classify", "verify", "invariants"):
        code, out, err = run(capsys, cmd, "--family", "f", f"--function={text}", "--grid", "x=0:1:3")
        assert (code, err) == (EXIT_OK, "")
        assert _strict_json(out)["config"]["function"] == text


def test_a_grid_past_the_point_budget_exits_2(capsys):
    code, out, err = run(capsys, "classify", "--family", "f", "--function", "x", "--grid", "x=0:1:300", "--grid", "y=0:1:1000")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == ("config error: the grid has 300000 points, more than the 207126 whose curvature fits in 16777216 "
                   "entries; lower the counts\n")


def _grammar_texts(coord):
    """Expression text over the whole grammar, sometimes nested past the parser's limits."""
    from curvhom.expr import FUNCTIONS, MAX_DEPTH, MAX_NESTING

    leaf = st.sampled_from(["0", "1", "2", "0.5", "1e300", coord, coord, "t", "x", "y"])

    def extend(inner):
        return st.one_of(
            st.builds("-{}".format, inner),
            st.builds("{}({})".format, st.sampled_from(FUNCTIONS), inner),
            st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("({})^{}".format, inner, st.sampled_from(["2", "3", "-1", "0", "0.5", "(1/3)"])),
            st.builds("({})".format, inner),
        )

    shallow = st.recursive(leaf, extend, max_leaves=6)
    nestings = [
        lambda e, n: "(" * n + e + ")" * n,
        lambda e, n: "sqrt(" * n + e + ")" * n,
        lambda e, n: "-" * n + e,
        lambda e, n: e + "^1" * n,
        lambda e, n: " + ".join([e] * (n * MAX_DEPTH // MAX_NESTING)),
    ]
    deep = st.builds(lambda nest, e, n: nest(e, n), st.sampled_from(nestings), shallow,
                     st.sampled_from([MAX_NESTING - 1, MAX_NESTING + 1, 3000]))
    return st.one_of(shallow, deep)


@st.composite
def _grammar_argv(draw):
    family = draw(st.sampled_from(["f", "h", "custom"]))
    coord = {"f": "x", "h": "t"}.get(family) or draw(st.sampled_from("txy"))
    text = draw(_grammar_texts(coord))
    cmd = draw(st.sampled_from(["verify", "classify", "invariants"]))
    argv = [cmd, "--family", family, "--order", str(draw(st.integers(0, 2)))]
    argv += [f"--metric=tt={text}", "--metric", "xy=1"] if family == "custom" else [f"--function={text}"]
    lo, hi = (draw(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])) for _ in range(2))
    return argv + ["--grid", f"{coord}={lo}:{hi}:{draw(st.integers(1, 4))}"]


@given(_grammar_argv())
@settings(max_examples=40, deadline=None)
def test_any_grammar_text_keeps_the_exit_code_contract(argv):
    import contextlib
    import io

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_HYPOTHESIS)
    assert code != EXIT_CHECK_FAILED or argv[0] == "verify"
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# one report envelope, and the front end's names read from one place

ENVELOPED = {  # a JSON report of every command, on each exit path that writes one
    "verify": ["verify", "--family", "f", "--function", "exp(x)", "--grid", "x=0:1:3"],
    "classify f": ["classify", "--family", "f", "--function", "exp(x)", "--grid", "x=0:1:3"],
    "classify custom": ["classify", "--family", "custom", "--metric", "tt=exp(2*x)", "--metric", "xy=1", "--grid", "x=0:1:3"],
    "classify flat": ["classify", "--family", "h", "--function", "0", "--grid", "t=0:1:3"],
    "invariants": ["invariants", "--family", "f", "--function", "exp(x)", "--grid", "x=0:1:3"],
    "invariants all excluded": ["invariants", "--family", "h", "--function", "t", "--grid", "t=0:1:3"],
}


@pytest.mark.parametrize("argv", ENVELOPED.values(), ids=ENVELOPED.keys())
def test_every_json_report_has_config_first_and_tool_version_last(capsys, argv):
    code, out, _ = run(capsys, *argv)
    keys = list(json.loads(out))
    assert code in (EXIT_OK, EXIT_HYPOTHESIS)
    assert (keys[0], keys[-1]) == ("config", "tool_version")
    assert keys.count("config") == keys.count("tool_version") == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (["classify", "--family", "custom", "--metric", "zz=1", "--grid", "x=0:1:3"],
         "config error: unknown metric slot 'zz'; expected one of ('tt', 'tx', 'ty', 'xx', 'xy', 'yy')\n"),
        (["classify", "--family", "f", "--function", "x", "--grid", "z=0:1:3"],
         "config error: unknown grid coordinate 'z'; expected one of ('t', 'x', 'y')\n"),
    ],
)
def test_unknown_metric_slot_and_grid_coordinate_messages(capsys, argv, err):
    assert run(capsys, *argv) == (EXIT_CONFIG, "", err)


@pytest.mark.parametrize("cmd", ["verify", "classify", "invariants"])
def test_family_help_and_missing_family_name_the_family_table_and_custom(capsys, cmd):
    from curvhom.classify import FAMILIES

    with pytest.raises(SystemExit):
        main([cmd, "--help"])
    line = next(line for line in capsys.readouterr().out.splitlines() if line.lstrip().startswith("--family FAMILY"))
    help_text = line.split("--family FAMILY", 1)[1].strip()
    code, _, err = run(capsys, cmd, "--grid", "x=0:1:3")
    assert (code, err) == (EXIT_CONFIG, f"config error: missing --family ({help_text})\n")
    assert help_text.replace(" or ", ", ").split(", ") == [*FAMILIES, "custom"]
    assert help_text == "f, h or custom"


@pytest.mark.parametrize("name", [name for name in ENVELOPED if name.startswith("classify")])
def test_classify_body_is_the_report_dict(capsys, name):
    """The classify JSON between config and tool_version is the report's
    to_dict(), key for key and in order."""
    from curvhom import cli
    from curvhom.classify import classify

    argv = ENVELOPED[name]
    _, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    config = cli._build_config(cli.make_parser().parse_args(argv))
    body = classify(cli._build_metric(config), config.order, config.grid.points(), config.tol).to_dict()
    assert list(payload)[1:-1] == list(body)
    assert {k: payload[k] for k in body} == json.loads(json.dumps(body))


def test_command_is_not_a_config_file_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = verify\nfamily = h\nfunction = t^3\ngrid = t=1:2:5\n")
    assert run(capsys, "classify", "--config", str(cfg)) == (EXIT_CONFIG, "", "config error: unknown config keys: ['command']\n")
