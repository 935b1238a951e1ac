"""Smoke test of the benchmark itself; about two minutes on two cores.

    python3 perfbench/smoke_test.py

Runs each workload briefly, untraced and traced, and checks that the last
line names every metric of BENCHMARK.json with its unit, that every op's
output passed its check, and that cli_mix flags exactly the two defect
probes.  Also checks that, without the curvhom sources next to it, the
benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result, context = json.loads(lines[-1]), json.loads(lines[-2])["context"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or context["failures"]:
        errors.append(f"{where}: failed ops {context['failures'] + context['warmup_failures']}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
    if not trace:
        flagged = [p["op"] for p in context["defect_probes"] if p["flagged"]]
        if flagged != [op.label() for op in workloads.PROBES.get(workload, [])]:
            errors.append(f"{where}: flagged defect probes {flagged}")
    return errors


def check_without_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("grid_lowk", 0, Path(bare))
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    errors = check_without_sources()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            errors += check_run(w["name"], trace)
    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
