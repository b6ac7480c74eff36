"""Reference checks: compare a run's outputs with the records in
``perfbench/reference`` and with each other.

Each check is one entry in a ``Checks`` tally; ``failed_frac`` is the share
that failed.  Tolerances:
- continuous outputs: relative 1e-9 (absolute 1e-12 near zero), loose
  enough for a change in summation order, tight enough for a wrong result;
- Whittle estimates: absolute 1e-7, since Nelder-Mead stops at
  ``xatol`` 1e-8; the Whittle objective keeps 1e-9 relative;
- CKC ``theta_hat``: relative 1e-7, a least-squares fit in raw log-GDP
  powers whose design's condition number reaches 7e4 (the solution's error
  can grow with its square);
- size-study rejection rates: within one replication; CKC p-values: within
  one block, since a tie can move one count;
- 1-worker against 2-worker, and traced against untraced: bit-identical.
"""

import json
import math
import os

from workloads import REFERENCE


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)


def load_reference(workload):
    with open(os.path.join(REFERENCE, f"{workload}.json")) as fh:
        return json.load(fh)


def close(a, b, rtol=1e-9, atol=1e-12):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= atol + rtol * abs(b)


def _row_ok(row, ref, kind, reps):
    if set(row) != set(ref):
        return False
    for key, want in ref.items():
        got = row[key]
        if isinstance(want, (str, bool)) or want is None:
            if got != want:
                return False
        elif kind == "size" and key == "value":
            if abs(got - want) > 1.0 / reps + 1e-12:
                return False
        elif kind == "size" and key == "mc_error":
            continue  # derived from the rejection counts checked above
        elif not close(float(got), float(want)):
            return False
    return True


def check_studies(checks, outputs, reference, reps, label):
    """Every table cell and histogram of ``outputs`` against ``reference``."""
    if len(outputs) != len(reference):
        checks.check(False, f"{label}: {len(outputs)} studies, expected {len(reference)}")
        return
    for s, (out, ref) in enumerate(zip(outputs, reference)):
        for criterion, rows in ref["tables"].items():
            got_rows = out["tables"].get(criterion, [])
            for i, want in enumerate(rows):
                ok = i < len(got_rows) and _row_ok(got_rows[i], want, criterion, reps)
                checks.check(ok, f"{label}: study {s} {criterion} row {i}")
        for key, want in ref["histograms"].items():
            got = out["histograms"].get(key)
            ok = got is not None and len(got) == len(want) and all(
                close(g, w) for g, w in zip(got, want))
            checks.check(ok, f"{label}: study {s} histogram {key}")


def check_whittle_item(checks, out, ref, label):
    ok = True
    for model in ("artfima", "arfima"):
        d, lam, obj = out[model]
        d_ref, lam_ref, obj_ref = ref[model]
        ok &= close(d, d_ref, rtol=0.0, atol=1e-7)
        ok &= close(lam, lam_ref, rtol=0.0, atol=1e-7)
        ok &= close(obj, obj_ref, atol=1e-10)
    checks.check(ok, label)


def check_ckc_item(checks, out, ref, label):
    ok = len(out) == len(ref)
    for row, want in zip(out, ref):
        p, blocks, *theta = row
        p_ref, blocks_ref, *theta_ref = want
        ok &= blocks == blocks_ref and len(theta) == len(theta_ref)
        ok &= abs(p - p_ref) <= 1.0 / (1.0 + blocks_ref) + 1e-12
        ok &= all(close(t, t_ref, rtol=1e-7) for t, t_ref in zip(theta, theta_ref))
    checks.check(ok, label)


def check_item(checks, workload, out, ref, label):
    if ref is None:
        checks.check(False, f"{label}: no reference record")
    elif workload == "whittle":
        check_whittle_item(checks, out, ref, label)
    else:
        check_ckc_item(checks, out, ref, label)


def check_identical(checks, a, b, label):
    """Bit-identical outputs (JSON floats round-trip exactly)."""
    checks.check(json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), label)
