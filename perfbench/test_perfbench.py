"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import tracer
from worker import record_digest

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.make_ops(workload, 5) == inputs.make_ops(workload, 5)
    if workload != "geometry":  # geometry runs the same verbs for every seed
        assert inputs.make_ops(workload, 5) != inputs.make_ops(workload, 6)


def test_line_inputs_are_live_cells():
    p = inputs.LINE_P
    for op in inputs.make_ops("line", 3):
        if op["kind"] == "main":
            num, den = (int(x) for x in op["t"].split("/"))
            s2 = (num - den) * pow(num, -1, p) % p
            assert pow(s2, (p - 1) // 2, p) == 1
        elif op["kind"] == "curve":
            assert (4 * op["a"] ** 3 - 27 * op["b"] ** 2) % p


def test_odd_prime_powers():
    qs = inputs.odd_prime_powers(30)
    assert qs == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
    assert len(inputs.odd_prime_powers(199)) == 53


def test_metric_names_and_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert {k: u for k, (u, _) in e2e.items()} == run.END_TO_END
    assert layer == tracer.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)
    for name in list(e2e) + list(layer) + list(inputs.WORKLOADS):
        assert NAME.fullmatch(name), name
    assert len(set(e2e) | set(layer)) == len(e2e) + len(layer)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _fake_spans():
    # op [0, 10]
    #   cli.main [1, 9]
    #     charsum.get [2, 5]
    #       charsum.table [3, 4.5]
    #     charsum.get [5, 5.5]
    #     hyperg.sum [6, 8]
    #       hyperg.sum [6.5, 7]   (an escalation)
    return [
        ["op", 0.0, 10.0, None, "a"],
        ["cli.main", 1.0, 9.0, 0, "a"],
        ["charsum.get", 2.0, 5.0, 1, "a"],
        ["charsum.table", 3.0, 4.5, 2, "a"],
        ["charsum.get", 5.0, 5.5, 1, "a"],
        ["hyperg.sum", 6.0, 8.0, 1, "a"],
        ["hyperg.sum", 6.5, 7.0, 5, "a"],
    ]


def test_self_times_on_a_synthetic_tree():
    assert tracer.self_times(_fake_spans()) == [2.0, 2.5, 1.5, 1.5, 0.5, 1.5, 0.5]


def test_layer_metrics_on_a_synthetic_tree():
    out = tracer.layer_metrics(_fake_spans(), {"hyperg.residual_max": 1e-9}, wall_s=10.0)
    assert out["cli.main.self_s"] == 2.5
    assert out["charsum.get.calls"] == 2
    assert out["charsum.get.self_s"] == 2.0
    assert (out["charsum.get.hits"], out["charsum.get.misses"]) == (1, 1)
    assert (out["hyperg.sum.calls"], out["hyperg.sum.escalations"]) == (2, 1)
    assert out["trace.coverage"] == 0.8
    assert out["hyperg.residual_max"] == 1e-9
    assert "op.calls" not in out


def test_tracer_records_parents_and_ops():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    tr.op = "x"
    root = tr.begin("op")
    child = tr.begin("cli.main")
    tr.end(child)
    tr.end(root)
    assert tr.spans == [["op", 0.0, 3.0, None, "x"], ["cli.main", 1.0, 2.0, 0, "x"]]
    assert tracer.self_times(tr.spans) == [2.0, 1.0]


def _reps(n):
    ops = [{"ms": float(i)} for i in range(1, n + 1)] + [{"ms": 1e6, "latency": False}]
    return [{"wall_s": 1.0, "peak_rss_mb": 5.0, "ops": ops}]


def test_nearest_rank_percentiles():
    metrics, info = run.end_to_end(_reps(30))
    assert metrics["op_p50_ms"] == 16.0  # the upper median
    assert metrics["op_tail_ms"] == 20.0  # 10 samples (21..30) lie beyond it
    assert info == {"percentile": 66.67, "samples": 30}
    metrics, info = run.end_to_end(_reps(16))  # too few samples for a tail
    assert metrics["op_tail_ms"] == metrics["op_p50_ms"] == 9.0
    assert info == {"percentile": 56.25, "samples": 16}


def test_record_digest_ignores_time_ms():
    a = '{"check": "bcm", "q": 7, "time_ms": 1.5}\n'
    b = '{"check": "bcm", "q": 7, "time_ms": null}\n'
    assert record_digest(a) == record_digest(b)
    assert record_digest(a) != record_digest('{"check": "bcm", "q": 11, "time_ms": null}\n')


def _work(ops, trace=False):
    """One worker repetition of `ops`, as run.py starts it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps({"ops": ops, "deadline_s": 60, "trace": trace}),
        capture_output=True, text=True, env=run.child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_worker_keeps_records_and_covers_wall_time():
    op = next(o for o in inputs.make_ops("sweep", 0) if o["id"] == "all:q=13")
    outs = [_work([op], trace) for trace in (False, True)]
    assert [o["ops"][0]["outcome"] for o in outs] == ["ok", "ok"]
    layers = outs[1]["layers"]
    assert layers["trace.coverage"] >= 0.9
    assert layers["charsum.get.misses"] == 1
    assert layers["k3count.verify.calls"] == 32  # 4 checks x 8 t values
    assert layers["ffield.vec.calls"] > 0 and layers["ffield.build.calls"] == 1


def test_sweep_matches_its_goldens():
    # BENCHMARK.json does not register `sweep`, so its digests are checked here
    ops = inputs.make_ops("sweep", 0)
    assert {op["id"] for op in ops} <= set(json.loads((HERE / "golden.json").read_text()))
    assert [op["outcome"] for op in _work(ops)["ops"]] == ["ok"] * len(ops)
