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
    from curvhom.tensor import TensorAtPoint

    def fake_oracle(k):
        comp = np.zeros((3,) * (4 + k))
        comp[(0, 1, 1, 0) + (0,) * k] = 1.0
        return TensorAtPoint(4 + k, comp)

    def fake_oracles(fn, p, kmax, dirs):
        return [fake_oracle(k) for k in range(kmax + 1)]

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
    from curvhom.cli import _compare

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
    before = engine.copy()
    got = _compare(engine, oracle, gscale)
    np.testing.assert_array_equal(engine, before)  # restored after zeroing the oracle-nonzero entries
    assert got == _compare_reference(engine, oracle, gscale)
    assert (got[0] > 0.0) == (oracle_kind != "all zero")
    assert (got[1] > 0.0) == (oracle_kind != "all nonzero")
    assert np.copysign(1.0, got[1]) == 1.0  # a report prints 0.0, not -0.0


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
        assert text == f"cannot evaluate the metric (OverflowError): metric inverse overflows at {point}"


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
        assert text == f"cannot evaluate the metric (OverflowError): curvature overflows at {point}"


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
