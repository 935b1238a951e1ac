"""curvhom benchmark: one workload, one run, metrics as the last stdout line.

    python3 perfbench/run.py --workload grid_lowk --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics: set-up time as the median of
several cold starts, then throughput, latency, memory and the share of ops
whose output passed its check, from one closed-loop window.  --trace 1
runs the window with per-module spans and prints the per-layer metrics.
The line before the last holds the run's context: machine facts, a
pure-Python speed canary before and after, sample counts, failures and
the defect probes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

# Cold starts per run whose median is setup_s; the measuring process is one.
SETUP_SAMPLES = {"grid_lowk": 5, "tower_highk": 3, "cli_mix": 5}
CANARY_REPS = 7


def canary_ms() -> float:
    """Median time of a fixed pure-Python loop: machine speed, as context."""
    times = []
    for _ in range(CANARY_REPS):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def start_worker(args, tmp: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Launch a worker and wait for READY; returns it and its set-up time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "seed": seed,
    }


def kind_p90s(res: dict) -> list[float]:
    """90th-percentile latency of each op kind of the cycle, in seconds."""
    by_kind: dict[int, list[float]] = {}
    for i, t in zip(res["op_ids"], res["latencies_s"]):
        by_kind.setdefault(i, []).append(t)
    return [percentile(v, 90) for v in by_kind.values()]


def end_to_end(res: dict, setups: list[float]) -> dict:
    """Throughput and latency come from each op kind's 90th percentile: on a
    VM whose speed flips between a fast and a slow state, that is the slow,
    steady state, while means and medians depend on how long the fast state
    lasted in the window.  See README.md."""
    attempted = len(res["latencies_s"])
    ok_frac = (attempted - len(res["failures"])) / attempted
    p90s = kind_p90s(res)
    return {
        "throughput_per_s": {"value": ok_frac * len(p90s) / sum(p90s), "unit": "1/s"},
        "latency_p90_ms": {"value": statistics.median(p90s) * 1000.0, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "ops_ok_frac": {"value": ok_frac, "unit": "fraction"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "curvhom" / "cli.py").is_file():
        print(f"no curvhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    canary_before = canary_ms()
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            proc, setup = start_worker(args, tmp, setup_only=True)
            finish(proc)
            setups.append(setup)
    proc, setup = start_worker(args, tmp, setup_only=False)
    setups.append(setup)
    res = json.loads(finish(proc).strip().splitlines()[-1])
    canary_after = canary_ms()
    try:
        tmp.rmdir()
    except OSError:  # not empty: another run shares it
        pass

    failed = len(res["failures"])
    attempted = len(res["latencies_s"])
    metrics = layers.per_layer(res) if args.trace else end_to_end(res, setups)
    context = {
        "machine": machine_facts(args.seed),
        "workload": args.workload,
        "canary_ms": {"before": canary_before, "after": canary_after},
        "setup_samples_s": setups,
        "window_s": res["window_s"],
        "cycles": res["cycles"],
        "latency_samples": attempted,
        "all_ops_latency_ms": {f"p{q}": percentile(res["latencies_s"], q) * 1000.0 for q in (50, 75, 90)},
        "window_throughput_per_s": (attempted - failed) / res["window_s"],
        "failures": res["failures"],
        "warmup_failures": res["warmup_failures"],
        "defect_probes": res.get("defect_probes", []),
    }
    print(json.dumps({"context": context}))
    correct = failed == 0 and not res["warmup_failures"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
