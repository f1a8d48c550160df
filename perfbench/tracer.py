"""In-memory span tracer for the benchmark's traced runs.

hgmk3 carries no instrumentation of its own, so the spans are opened from the
benchmark's files: `install` replaces the public functions of each module with
wrappers that open a span around the call.  A span is the list
[name, start, end, parent, op]; spans stay in memory until `write` at the end
of the process.  Counters and maxima are recorded at the same boundaries.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict

ROOT = "op"  # the span the benchmark opens around each operation

# Metric name -> (unit, better) for every per-layer metric a traced run reports.
LAYER_METRICS = {}


def _declare(names, unit, better):
    for name in names:
        LAYER_METRICS[name] = (unit, better)


_SPANS = (
    "ffield.build", "ffield.vec", "charsum.table", "charsum.get", "hyperg.sum",
    "ecount.count", "ecount.verify", "k3count.affine", "k3count.surface",
    "k3count.verify", "geomver.map", "geomver.prime", "geomver.eval",
    "geomver.exact", "geomver.kodaira", "nslat.lattice", "cmdata.check",
    "cli.main", "cli.emit",
)
_declare([f"{s}.calls" for s in _SPANS], "count", "lower")
_declare([f"{s}.self_s" for s in _SPANS], "s", "lower")
_declare(["ffield.vec.elems", "charsum.table.hiprec", "charsum.get.misses",
          "hyperg.sum.escalations", "ecount.count.points", "k3count.grid_cells",
          "k3count.skips", "geomver.sz.attempts", "probe.deadline_misses"], "count", "lower")
_declare(["charsum.get.hits", "geomver.sz.trials"], "count", "higher")
_declare(["charsum.residual_max", "hyperg.residual_max"], "abs", "lower")
_declare(["k3count.rss_growth_mb"], "MB", "lower")
_declare(["geomver.sz.yield", "trace.coverage"], "ratio", "higher")
_declare(["fail_ratio"], "ratio", "lower")
_declare(["trace.overhead_s"], "s", "lower")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.open = defaultdict(int)  # span name -> number of open spans
        self.counters = defaultdict(float)
        self.op = None

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else None, self.op])
        self.stack.append(idx)
        self.open[name] += 1
        return idx

    def end(self, idx):
        span = self.spans[idx]
        span[2] = self.clock()
        self.stack.pop()
        self.open[span[0]] -= 1

    def count(self, name, amount=1):
        self.counters[name] += amount

    def record_max(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    A stack tracer in one thread never overlaps two children of one span, so
    the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, counters, wall_s):
    """Per-layer metrics of one traced repetition (no probe or overhead figures)."""
    out = {name: 0.0 for name in LAYER_METRICS}
    for i, st in enumerate(self_times(spans)):
        name = spans[i][0]
        if name != ROOT:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += st
    children = defaultdict(set)
    for name, _, _, parent, _ in spans:
        if parent is not None:
            children[parent].add(name)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == "charsum.get":
            key = "charsum.get.misses" if "charsum.table" in children[i] else "charsum.get.hits"
            out[key] += 1
        elif name == "hyperg.sum" and parent is not None and spans[parent][0] == "hyperg.sum":
            out["hyperg.sum.escalations"] += 1
    covered = sum(end - start for name, start, end, parent, _ in spans
                  if parent is not None and spans[parent][0] == ROOT)
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    out.update({k: v for k, v in counters.items() if k in out})
    if out["geomver.sz.attempts"]:
        out["geomver.sz.yield"] = out["geomver.sz.trials"] / out["geomver.sz.attempts"]
    return out


# ---------------------------------------------------------------------------
# wrapping hgmk3's functions
# ---------------------------------------------------------------------------

def _rebind(original, wrapper):
    """Replace `original` by `wrapper` wherever an hgmk3 module binds it by name."""
    sites = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "hgmk3" and not modname.startswith("hgmk3."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                sites += 1
    if not sites:
        raise RuntimeError(f"no binding of {original.__qualname__} found")


def _wrapper(tracer, original, span, after=None, outermost=False, rss=False):
    def wrapper(*args, **kwargs):
        if outermost and tracer.open[span]:
            return original(*args, **kwargs)
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
        idx = tracer.begin(span)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(idx)
        if rss:
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
            tracer.count("k3count.rss_growth_mb", grown / 1024.0)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _elems(tr, args, kwargs, result):
    tr.count("ffield.vec.elems", getattr(result, "size", 1))


def _table(tr, args, kwargs, result):
    cs = args[0]
    tr.record_max("charsum.residual_max", cs.residual)
    if cs.precision > 53:
        tr.count("charsum.table.hiprec")


def _hg_residual(tr, args, kwargs, result):
    tr.record_max("hyperg.residual_max", result.residual)


def _points(tr, args, kwargs, result):
    field = args[1] if len(args) > 1 else kwargs.get("field")
    tr.count("ecount.count.points", (field or args[0].field).q)


def _grid(tr, args, kwargs, result):
    tr.count("k3count.grid_cells", args[0].q ** 2)


def _skips(tr, args, kwargs, result):
    if result.skipped:
        tr.count("k3count.skips")


def _map_trials(tr, report):
    tr.count("geomver.sz.trials", report.trials)
    tr.count("geomver.sz.attempts", report.attempts)


def _map(tr, args, kwargs, result):
    _map_trials(tr, result)


def _chain(tr, args, kwargs, result):
    # the per-link reports were counted by their own verify_map spans
    _map_trials(tr, result[-1])


FUNCTIONS = (
    # module, attribute, span, after-hook, options
    ("hgmk3.charsum", "get_character_system", "charsum.get", None, {}),
    ("hgmk3.hyperg", "hg_sum", "hyperg.sum", _hg_residual, {}),
    ("hgmk3.ecount", "count_points", "ecount.count", _points, {}),
    ("hgmk3.ecount", "verify_curve_trace_theorem", "ecount.verify", None, {}),
    ("hgmk3.k3count", "count_affine", "k3count.affine", _grid, {"rss": True}),
    ("hgmk3.k3count", "count_elliptic_surface", "k3count.surface", _grid, {"rss": True}),
    ("hgmk3.k3count", "verify_bcm_identity", "k3count.verify", _skips, {}),
    ("hgmk3.k3count", "verify_point_count_lemma", "k3count.verify", _skips, {}),
    ("hgmk3.k3count", "verify_trace_corollary", "k3count.verify", _skips, {}),
    ("hgmk3.k3count", "verify_main_identity", "k3count.verify", _skips, {}),
    ("hgmk3.geomver.sz", "verify_map", "geomver.map", _map, {}),
    ("hgmk3.geomver.sz", "verify_chain_psi", "geomver.map", _chain, {}),
    ("hgmk3.geomver.modeval", "random_prime", "geomver.prime", None, {}),
    ("hgmk3.geomver.modeval", "eval_mod", "geomver.eval", None, {"outermost": True}),
    ("hgmk3.geomver.sz", "verify_si_parameters", "geomver.exact", None, {}),
    ("hgmk3.geomver.sz", "x0_2_checks", "geomver.exact", None, {}),
    ("hgmk3.geomver.kodaira", "kodaira_profile", "geomver.kodaira", None, {}),
    ("hgmk3.nslat", "ns_gram_generic", "nslat.lattice", None, {}),
    ("hgmk3.nslat", "ns_cm_gram", "nslat.lattice", None, {}),
    ("hgmk3.nslat", "verify_table5", "nslat.lattice", None, {}),
    ("hgmk3.cmdata", "verify_rational_cm", "cmdata.check", None, {}),
    ("hgmk3.cmdata", "verify_quadratic_cm", "cmdata.check", None, {}),
    ("hgmk3.cmdata", "verify_classification_consistency", "cmdata.check", None, {}),
    ("hgmk3.cli", "main", "cli.main", None, {}),
    ("hgmk3.cli", "emit_records", "cli.emit", None, {}),
    ("hgmk3.cli", "_jdump", "cli.emit", None, {}),
)

VEC_METHODS = ("add_codes", "neg_codes", "sub_codes", "mul_codes", "inv_codes",
               "pow_codes", "chi_codes")


def install(tracer):
    """Wrap every instrumented hgmk3 function and method; hgmk3 must be imported."""
    from hgmk3.charsum import CharacterSystem
    from hgmk3.ffield import FieldSpec

    for modname, attr, span, after, opts in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, _wrapper(tracer, original, span, after, **opts))
    FieldSpec.__init__ = _wrapper(tracer, FieldSpec.__init__, "ffield.build")
    for attr in VEC_METHODS:
        setattr(FieldSpec, attr, _wrapper(tracer, getattr(FieldSpec, attr), "ffield.vec", _elems))
    CharacterSystem.__init__ = _wrapper(tracer, CharacterSystem.__init__, "charsum.table", _table)
