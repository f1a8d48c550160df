"""One repetition of a benchmark workload, run in a fresh interpreter.

Reads a JSON job on stdin: {"ops": [...], "trace": bool, "trace_path": str or
null, "deadline_s": float}.  Imports hgmk3 from the checkout's src/ directory
(timed: that is the set-up), runs each operation under a deadline, checks its
result, and writes one JSON object on stdout.  Exits with code 3 when the
checkout holds no hgmk3 sources.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class DeadlineExceeded(BaseException):
    """The operation ran past its deadline (a BaseException, so that no handler
    inside the program can swallow it)."""


class CheckFailed(Exception):
    """The operation returned a result that is not the certified one."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def record_digest(text):
    """SHA-256 over the JSON output lines with any `time_ms` field removed."""
    h = hashlib.sha256()
    for line in text.splitlines():
        rec = json.loads(line)
        rec.pop("time_ms", None)
        h.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _expect(cond, what):
    if not cond:
        raise CheckFailed(what)


class Runner:
    """Executes the ops of one repetition; fields and tables carry across ops."""

    def __init__(self, hgmk3, golden):
        self.hg = hgmk3
        self.golden = golden
        self.field = None
        self.cs = None

    def cli(self, op):
        buf = io.StringIO()
        code = self.hg.cli.main(op["argv"], out=buf)
        _expect(code == 0, f"exit code {code}")
        _expect(record_digest(buf.getvalue()) == self.golden[op["id"]], "record digest differs from golden")

    def field_op(self, op):
        import numpy as np  # not at module level: hgmk3's import of it is set-up time

        self.field = f = self.hg.field_new(op["p"], op["n"])
        _expect(f.q == op["p"] ** op["n"], "wrong order")
        _expect(bool((f.dlog[f.exp] == np.arange(f.q - 1)).all()), "exp/dlog tables disagree")

    def tables(self, op):
        f = self.field
        self.cs = cs = self.hg.get_character_system(f, 53)
        _expect(cs.precision == 53 and cs.gauss[0] == -1, "not the 53-bit table")
        _expect(cs.residual <= 1e-6 * f.q ** 0.5, f"residual {cs.residual}")
        h3 = self.hg.hg_H3(f, op["t"], cs=cs)
        qh2 = self.hg.hg_H2(f, op["t"], cs=cs) * f.q
        _expect(isinstance(h3, int) and abs(h3) <= 3 * f.q, "H3 not an integer within 3q")
        _expect(qh2.denominator == 1 and qh2 * qh2 <= 4 * f.q, "q H2 not an integer within 2 sqrt(q)")

    def main(self, op):
        rep = self.hg.verify_main_identity(self.field, Fraction(op["t"]), self.cs)
        _expect(not rep.skipped, f"skipped: {rep.reason}")
        cells = rep.detail["cells"]
        _expect(rep.passed and all(c.get("pass") for c in cells), "identity fails")
        q = self.field.q
        _expect(all(c["qH2"] ** 2 - q == c["h3"] and abs(c["h3"]) <= 3 * q for c in cells),
                "cell values break the identity or the 3q bound")

    def curve(self, op):
        rep = self.hg.verify_curve_trace_theorem(self.field, op["a"], op["b"], self.cs)
        q = self.field.q
        _expect(not rep.skipped and rep.passed and rep.count == rep.rhs, "trace theorem fails")
        _expect((q + 1 - rep.count) ** 2 <= 4 * q, "count outside the Hasse bound")
        _expect((rep.h2 * q).denominator == 1, "q H2 not an integer")

    def lemma(self, op):
        field = self.hg.field_new(op["p"], op["n"])
        rep = self.hg.verify_point_count_lemma(field, Fraction(op["t"]))
        _expect(not rep.skipped and rep.passed and rep.lhs == rep.rhs, "lemma fails")
        _expect([rep.lhs, rep.detail["affine"]] == self.golden[op["id"]], "counts differ from golden")

    def probe(self, op):
        field = self.hg.field_new(op["p"])
        _expect(self.hg.hg_H3(field, op["t"]) == op["expect"], "probe value wrong")


RUNNERS = {"cli": Runner.cli, "field": Runner.field_op, "tables": Runner.tables,
           "main": Runner.main, "curve": Runner.curve, "lemma": Runner.lemma,
           "probe": Runner.probe}


def run(job):
    if not (SRC / "hgmk3" / "__init__.py").is_file():
        print(f"no hgmk3 sources under {SRC}", file=sys.stderr)
        sys.exit(3)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hgmk3
    import hgmk3.cli

    setup_s = time.perf_counter() - t0
    if Path(hgmk3.__file__).resolve().parent != SRC / "hgmk3":
        print(f"imported hgmk3 from {hgmk3.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(3)
    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    signal.signal(signal.SIGALRM, _alarm)
    runner = Runner(hgmk3, json.loads((HERE / "golden.json").read_text()))
    results = []
    start = time.perf_counter()
    for op in job["ops"]:
        deadline = op.get("deadline_s", job["deadline_s"])
        root = None
        if tracer is not None:
            tracer.op = op["id"]
            root = tracer.begin("op")
        outcome = "ok"
        t_op = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            RUNNERS[op["kind"]](runner, op)
        except DeadlineExceeded:
            outcome = "deadline"
        except CheckFailed as e:
            outcome = f"wrong: {e}"
        except Exception as e:  # any error is a failed op, reported by name
            outcome = f"error: {type(e).__name__}: {e}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ms = (time.perf_counter() - t_op) * 1000.0
        if root is not None:
            tracer.end(root)
        results.append({"id": op["id"], "ms": ms, "outcome": outcome,
                        "latency": op.get("latency", True)})
    wall_s = time.perf_counter() - start
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters, wall_s)
        if job.get("trace_path"):
            tracer.write(job["trace_path"])
    return out


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
