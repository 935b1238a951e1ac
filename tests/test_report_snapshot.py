"""scripts/report_snapshot.py --compare is the gate for changes that may move
printed numbers but nothing else; this checks what it lets through."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def snapshot():
    sys.path.insert(0, str(SCRIPTS))  # the script imports survey_families from its own directory
    try:
        spec = importlib.util.spec_from_file_location("report_snapshot", SCRIPTS / "report_snapshot.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


REPORT = 'argv: verify --grid x=0.5:1:9\nexit: {exit}\n--- stdout\n{{"{key}": {value}, "points": 9}}\n--- stderr\n'


def _compare(snapshot, tmp_path, capsys, changed):
    for side, fields in (("a", {}), ("b", changed)):
        (tmp_path / side).mkdir()
        text = REPORT.format(**{"exit": 0, "key": "max_relative_deviation", "value": 0.25, **fields})
        (tmp_path / side / "000.txt").write_text(text, encoding="utf-8")
    code = snapshot.compare(tmp_path / "a", tmp_path / "b")
    return code, capsys.readouterr().out


def test_compare_passes_a_numeric_change_and_reports_its_size(snapshot, tmp_path, capsys):
    code, out = _compare(snapshot, tmp_path, capsys, {"value": 0.25 * (1 + 4e-14)})
    assert code == 0
    assert "0 differ in more than numbers, 1 in numbers only" in out
    assert "largest relative change above 1e-06: 4.00e-14 in 000.txt" in out


def test_compare_lists_a_zero_that_changes_sign(snapshot, tmp_path, capsys):
    for side, value in (("a", "0.0"), ("b", "-0.0")):
        (tmp_path / side).mkdir()
        text = REPORT.format(exit=0, key="max_absolute_deviation_on_zeros", value=value)
        (tmp_path / side / "000.txt").write_text(text, encoding="utf-8")
    assert snapshot.compare(tmp_path / "a", tmp_path / "b") == 0
    assert "0 differ in more than numbers, 1 in numbers only" in capsys.readouterr().out


@pytest.mark.parametrize(
    "changed", [{"exit": 1}, {"key": "max_absolute_deviation"}, {"value": "NaN"}, {"value": 3}],
    ids=["exit code", "key", "non-number", "integer"],
)
def test_compare_fails_on_anything_but_a_real_number(snapshot, tmp_path, capsys, changed):
    code, out = _compare(snapshot, tmp_path, capsys, changed)
    assert code == 1
    assert "000.txt: differs in more than numbers" in out


@pytest.mark.parametrize("argv", [["-h"], ["--help"]])
def test_help_prints_the_docstring_and_writes_nothing(snapshot, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert snapshot.main(argv) == 0
    assert capsys.readouterr().out == snapshot.__doc__.strip() + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--out"], ["-o"], ["--compare", "a"], []])
def test_a_flag_or_a_wrong_count_is_a_usage_error(snapshot, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert snapshot.main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: report_snapshot.py OUTDIR")
    assert list(tmp_path.iterdir()) == []


def test_survey_runs_without_pythonpath(tmp_path):
    import os
    import subprocess

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / "survey_families.py"), "--order", "0", "--points", "2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split("\n", 1)[0].split() == ["metric", "CH_0", "CH_0(1,3)", "SCH_0(1,3)", "xi", "range"]
