"""hgmk3 benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload line --seed 1 --seconds 40 --trace 0

Workloads (inputs.py builds their operations from the seed): `line`, one
field of order 1000003 with the default-precision probe; `counts`, the
point-count lemma on F_2003 and F_3^7; `geometry`, the sympy-bound verbs;
`sweep`, the acceptance grid over every odd q <= 199.  BENCHMARK.json lists
the first three.  On a noisy 2-CPU VM a steady run takes about 40 s, and the
registered set keeps to three runs of that length; `sweep` runs by hand, and
the self-tests check every one of its golden digests.

Each repetition runs in a fresh interpreter (worker.py) that imports hgmk3
from src/, so it pays field and Gauss-table construction as a command-line
user does.  One process at a time runs, with BLAS pinned to one thread.
Every operation's result is checked; a wrong result, an error or a missed
deadline is a failed operation, and the result is correct only when no
operation failed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions, prints the per-layer metrics with the tracing overhead
among them, and writes the raw spans under .perfbench/.  The last line of
stdout is the result object; the lines before it carry the environment, the
repetitions, the tail percentile with its sample count, and the outcome of
the `line` workload's default-precision probe.
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

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"

# Repetitions a run makes per minute of --seconds: a fixed number for a given
# --seconds, so that every commit is measured on the same samples.  One
# repetition, interpreter start and import included, takes about 5.3 s on
# `line`, 8.6 s on `counts`, 5.5 s on `geometry` and 4.2 s on `sweep` on a
# 2-CPU VM whose speed drifts by up to 30% over tens of seconds.  `geometry`
# needs at least 6 repetitions (it makes 7 at --seconds 40): from 6 on, its
# tail falls on maps or si-params, whose latency follows the machine's speed,
# and not on the first fibration profile, whose latency also varies from one
# process to the next.
REPS_PER_MINUTE = {"sweep": 15, "line": 7.5, "counts": 6, "geometry": 10.5}
MIN_REPS = 2
MIN_SETUP_SAMPLES = 5
OP_DEADLINE_S = 60.0
RUN_LIMIT_S = 150.0  # stop starting repetitions after this; exit well before 180 s
TAIL_BEYOND = 10  # samples beyond the tail percentile

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed):
    """The record printed with every run."""
    versions = {}
    for mod in ("numpy", "sympy", "mpmath"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "seed": seed,
    }


def run_child(job, deadline):
    """One fresh interpreter; returns its result object."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def nearest_rank(xs, k):
    """The k-th smallest sample (1-based) and its percentile."""
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(reps):
    """Median wall time and RSS over repetitions; nearest-rank latency percentiles
    over the ops that are latency samples: the upper median, and the highest
    percentile with TAIL_BEYOND samples beyond it, or the upper median where
    that percentile would lie below it (`counts` has 4 ops a repetition)."""
    latencies = sorted(op["ms"] for r in reps for op in r["ops"] if op.get("latency", True))
    n = len(latencies)
    p50_rank = n // 2 + 1
    tail_ms, tail_pct = nearest_rank(latencies, max(p50_rank, n - TAIL_BEYOND))
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "op_p50_ms": nearest_rank(latencies, p50_rank)[0],
        "op_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return metrics, {"percentile": round(tail_pct, 2), "samples": n}


def layers(untraced, traced, probe_runs, probe_misses, attempted, failed):
    out = {}
    for name in tracer.LAYER_METRICS:
        out[name] = statistics.median(r["layers"][name] for r in traced)
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in untraced))
    out["probe.deadline_misses"] = probe_misses
    out["fail_ratio"] = (failed + probe_misses) / (attempted + probe_runs)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + 170.0
    run_limit = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "hgmk3" / "__pycache__").is_dir():
        # the first run in a checkout compiles hgmk3's byte code; unmeasured
        run_child({"ops": [], "deadline_s": OP_DEADLINE_S}, deadline)
    print(json.dumps({"env": environment(args.seed)}), flush=True)
    ops = inputs.make_ops(args.workload, args.seed)
    job = {"ops": ops, "deadline_s": OP_DEADLINE_S, "trace": False}
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)

    n_reps = max(MIN_REPS, round(args.seconds * REPS_PER_MINUTE[args.workload] / 60))
    # import-only repetitions that bring the set-up samples to MIN_SETUP_SAMPLES,
    # spread between the full repetitions so that they see the same machine
    n_extra = max(0, MIN_SETUP_SAMPLES - n_reps)
    untraced, traced, setups = [], [], []
    for i in range(n_reps):
        if time.monotonic() > run_limit:
            break
        is_traced = bool(args.trace) and i % 2 == 1
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}-rep{i}.jsonl"
        rep = run_child({**job, "trace": is_traced,
                         "trace_path": str(trace_path) if is_traced else None}, deadline)
        (traced if is_traced else untraced).append(rep)
        setups.append(rep["setup_s"])
        for _ in range(n_extra * (i + 1) // n_reps - n_extra * i // n_reps):
            setups.append(run_child({"ops": [], "deadline_s": OP_DEADLINE_S}, deadline)["setup_s"])

    probe_runs = probe_misses = 0
    if args.workload == "line":
        probe_runs = 1
        probe = run_child({"ops": [inputs.probe_op()], "deadline_s": OP_DEADLINE_S}, deadline)
        outcome = probe["ops"][0]
        probe_misses = int(outcome["outcome"] != "ok")
        print(json.dumps({"probe": {**inputs.PROBE, **outcome,
                                    "known_defect": inputs.PROBE_DEFECT}}), flush=True)

    print(json.dumps({"repetitions": {
        "wall_s": [r["wall_s"] for r in untraced] + [r["wall_s"] for r in traced],
        "traced": [False] * len(untraced) + [True] * len(traced),
        "setup_s": setups,
    }}), flush=True)
    results = [op for r in untraced + traced for op in r["ops"]]
    attempted = len(results)
    failed = sum(op["outcome"] != "ok" for op in results)
    for op in results:
        if op["outcome"] != "ok":
            print(json.dumps({"failed_op": op}), flush=True)

    if args.trace:
        values = layers(untraced, traced, probe_runs, probe_misses, attempted, failed)
        units = {k: u for k, (u, _) in tracer.LAYER_METRICS.items()}
    else:
        values, tail_info = end_to_end(untraced)
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END
        print(json.dumps({"op_tail_ms": tail_info}), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
