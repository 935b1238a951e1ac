"""One benchmark process: set up, say READY, then (unless --setup-only) run
the timed closed loop and print its raw results as one JSON line.

In-process workloads call ``curvhom.cli.main`` directly; ``cli_mix`` starts
a fresh ``python -m curvhom`` per op.  run.py starts this script, times it
from launch to READY (the set-up time) and turns its results into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OP_TIMEOUT_S = 120
IMPORT_PAIRS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class InProcess:
    """Runs ops through curvhom.cli.main in this interpreter."""

    def __init__(self, tmp: Path):
        sys.path.insert(0, str(SRC))
        import curvhom.cli

        if Path(curvhom.cli.__file__).resolve().parent != SRC / "curvhom":
            raise SystemExit(f"curvhom imported from {curvhom.cli.__file__}, not {SRC}")
        self.cli = curvhom.cli
        self.report = tmp / "report.json"
        self.tracer = tracing.Tracer()

    def run(self, op: workloads.Op, traced: bool) -> tuple[float, workloads.Outcome]:
        self.report.unlink(missing_ok=True)
        argv = [*op.argv, "--output", str(self.report)]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # an uncaught exception: what a CLI user would see
                traceback.print_exc()
                code = 1
        elapsed = time.perf_counter() - start
        return elapsed, outcome(code, err.getvalue(), self.report)

    def trace_on(self):
        self.tracer.install()

    def trace_off(self) -> tracing.Totals:
        self.tracer.uninstall()
        return self.tracer.fold()


class Subprocess:
    """Runs each op as a fresh `python -m curvhom` process."""

    def __init__(self, tmp: Path):
        if not (SRC / "curvhom" / "__main__.py").is_file():
            raise SystemExit(f"no curvhom package under {SRC}")
        self.report = tmp / "report.json"
        self.totals_file = tmp / "trace.json"
        self.env = child_env()
        self.totals = tracing.Totals()

    def run(self, op: workloads.Op, traced: bool) -> tuple[float, workloads.Outcome]:
        self.report.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(self.totals_file)]
        else:
            cmd = [sys.executable, "-m", "curvhom"]
        cmd += [*op.argv, "--output", str(self.report)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, err = -1, f"timed out after {OP_TIMEOUT_S} s"
        elapsed = time.perf_counter() - start
        if traced and self.totals_file.exists():
            self.totals.add(tracing.Totals(json.loads(self.totals_file.read_text())))
            self.totals_file.unlink()
        return elapsed, outcome(code, err, self.report)

    def trace_on(self):
        pass  # each traced op installs the tracer in its own process

    def trace_off(self) -> tracing.Totals:
        out, self.totals = self.totals, tracing.Totals()
        return out


def outcome(code: int, stderr: str, report: Path) -> workloads.Outcome:
    text = report.read_text(encoding="utf-8") if report.exists() else None
    return workloads.Outcome(code, stderr, text)


def judge(op: workloads.Op, out: workloads.Outcome) -> str | None:
    try:
        return op.check(out)
    except (ValueError, KeyError, TypeError) as err:  # malformed or missing report
        return f"unreadable report: {err!r}"


def import_costs(env: dict) -> tuple[float, float]:
    """(median wall time of a fresh interpreter that imports curvhom,
    that minus the median of a bare interpreter), from interleaved pairs."""
    bare, loaded = [], []
    for _ in range(IMPORT_PAIRS):
        for code, sink in (("pass", bare), ("import curvhom", loaded)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            sink.append(time.perf_counter() - start)
    process = statistics.median(loaded)
    return process, process - statistics.median(bare)


def timed_loop(runner, cycle, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop, one client: whole cycles in fresh seeded orders until the
    window is used up.  With tracing, cycles alternate traced and untraced."""
    rng = random.Random(seed ^ 0x5EED)
    latencies, op_ids, failures, points = [], [], [], 0
    traced_ops = untraced_ops = 0
    traced_s = untraced_s = 0.0
    totals = tracing.Totals()
    gc.collect()
    window_start = time.perf_counter()
    cycle_times = []
    while True:
        # stop when the window is nearer its end than half a cycle; a traced
        # run needs at least one traced and one untraced cycle
        elapsed = time.perf_counter() - window_start
        used_up = cycle_times and elapsed + 0.5 * statistics.mean(cycle_times) > seconds
        if used_up and (not trace or len(cycle_times) >= 2):
            break
        traced = trace and len(cycle_times) % 2 == 0
        if traced:
            runner.trace_on()
        cycle_start = time.perf_counter()
        for i in rng.sample(range(len(cycle)), len(cycle)):
            op = cycle[i]
            dt, out = runner.run(op, traced)
            latencies.append(dt)
            op_ids.append(i)
            bad = judge(op, out)
            if bad:
                failures.append(f"{op.label()}: {bad}")
            if traced:
                points += op.npoints
        cycle_times.append(time.perf_counter() - cycle_start)
        if traced:
            totals.add(runner.trace_off())
            traced_ops += len(cycle)
            traced_s += cycle_times[-1]
        else:
            untraced_ops += len(cycle)
            untraced_s += cycle_times[-1]
    result = {
        "window_s": time.perf_counter() - window_start,
        "latencies_s": latencies,
        "op_ids": op_ids,
        "failures": failures,
        "cycles": len(cycle_times),
        "cycle_ops": len(cycle),
    }
    if trace:
        result.update(
            traced_ops=traced_ops,
            traced_points=points,
            throughput_traced_per_s=traced_ops / traced_s,
            throughput_untraced_per_s=untraced_ops / untraced_s,
            totals=totals.to_dict(),
        )
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True, help="scratch directory for reports")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tmp = Path(tempfile.mkdtemp(dir=args.tmp))
    try:
        in_process = args.workload in workloads.IN_PROCESS
        runner = InProcess(tmp) if in_process else Subprocess(tmp)
        cycle = workloads.WORKLOADS[args.workload](args.seed)
        warm_failures = []
        for op in workloads.warmup_ops(cycle):
            _, out = runner.run(op, False)
            bad = judge(op, out)
            if bad:
                warm_failures.append(f"{op.label()}: {bad}")
        print("READY", flush=True)
        if args.setup_only:
            return 0

        result = timed_loop(runner, cycle, args.seed, args.seconds, bool(args.trace))
        result["warmup_failures"] = warm_failures
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        if args.trace:
            result["process_s"], result["import_s"] = import_costs(child_env())
        else:
            probes = []
            for op in workloads.PROBES.get(args.workload, []):
                _, out = runner.run(op, False)
                probes.append({"op": op.label(), "flagged": judge(op, out)})
            result["defect_probes"] = probes
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
