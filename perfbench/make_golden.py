"""Regenerate golden.json, the certified outputs the benchmark checks against.

Run from the repository root:

    python3 perfbench/make_golden.py

It records, for the sweep and geometry operations, the digest of the record
stream with `time_ms` removed, and for each counts cell the pair
(|E_t(F_q)|, |V_t(F_q)|).  Regenerate only for a reviewed, intended change of
hgmk3's output: a regenerated file vouches for whatever the program printed.
"""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction

from inputs import make_ops
from worker import HERE, SRC, record_digest

def main():
    sys.path.insert(0, str(SRC))
    import hgmk3
    import hgmk3.cli

    golden = {}
    for op in make_ops("sweep", 0) + make_ops("geometry", 0):
        buf = io.StringIO()
        if hgmk3.cli.main(op["argv"], out=buf) != 0:
            sys.exit(f"{op['id']} failed")
        golden[op["id"]] = record_digest(buf.getvalue())
    for op in make_ops("counts", 0):
        field = hgmk3.field_new(op["p"], op["n"])
        rep = hgmk3.verify_point_count_lemma(field, Fraction(op["t"]))
        if not rep.passed or rep.skipped:
            sys.exit(f"{op['id']} failed")
        golden[op["id"]] = [rep.lhs, rep.detail["affine"]]
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
