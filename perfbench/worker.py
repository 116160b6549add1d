"""One workload in one fresh process: import boolcube from the checkout's
src/, run the warm-up ops, print "ready", then run whole passes over the
plan's ops as a closed loop with one client until the time is up.

Each op is an in-process call to boolcube.cli.main(argv) with stdout and
stderr captured; only that call is timed.  Outputs are checked after the
timer stops.  With --trace, untraced and traced passes alternate and the
per-layer metrics come from the traced ones.

usage: worker.py PLAN --out RESULT [--seconds S] [--trace] [--spans PATH]
       worker.py PLAN --setup-only
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from boolcube import cli  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402

# Whole passes run while they fit in --seconds and, untraced, until at least
# this many ops are timed, so that at least ten samples lie above p90.
MIN_SAMPLES = 110


def run_op(argv: list[str]) -> tuple[float, object, str]:
    """(seconds, exit code or the exception raised, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed op, not a crash
            rc = exc
    return perf_counter() - t0, rc, out.getvalue()


class Loop:
    """Runs ops, checks each output once per distinct digest, and counts."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.attempted = self.failed = 0
        self.targets = self.found = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, bool | None] = {}

    def one(self, op: dict) -> float:
        self.attempted += 1
        # Each op starts on a collected heap, as in a fresh CLI process:
        # cyclic garbage left by the previous op (the search's closures hold
        # its 2^n-entry tables) would otherwise raise this op's memory and
        # put that op's collection inside this op's time.
        gc.collect()
        dt, rc, out = run_op(op["argv"])
        # The exit code is part of what is digested, so a cached verdict
        # never covers a different outcome with the same output.
        digest = hashlib.sha256(("%r\0" % (rc,) + oracle.normalise(
            op["kind"], out)).encode()).hexdigest()
        old = self.digests.setdefault(op["id"], digest)
        self.targets += op["kind"] == "search"
        try:
            if old != digest:
                raise oracle.CheckFailed("output differs between passes")
            if digest not in self.verdicts:
                self.verdicts[digest] = oracle.check(op, rc, out)
        except Exception as exc:
            self._fail(op, "%s: %s" % (type(exc).__name__, exc))
            return dt
        self.found += bool(self.verdicts[digest])
        return dt

    def _fail(self, op: dict, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append("%s: %s" % (op["id"], why))

    def passes(self, seconds: float, trace_mode: bool, spans_path=None) -> dict:
        lat: list[float] = []
        traced_lat: list[float] = []
        rec = spans.Recorder() if trace_mode else None
        t_end = perf_counter() + seconds
        need = 0 if trace_mode else MIN_SAMPLES
        n_pass, last = 0, 0.0
        # A pass starts only if one as long as the last still ends in time.
        while (perf_counter() + last <= t_end or len(lat) < need
               or (trace_mode and not traced_lat)):
            t_pass = perf_counter()
            traced = trace_mode and n_pass % 2 == 1
            if traced:
                rec.install()
            try:
                for op in self.plan["ops"]:
                    if traced:
                        rec.op += 1
                        traced_lat.append(self.one(op))
                    else:
                        lat.append(self.one(op))
            finally:
                if traced:
                    rec.uninstall()
            n_pass += 1
            last = perf_counter() - t_pass
        res = {"latencies": lat, "passes": n_pass}
        if trace_mode:
            ratio = (sum(traced_lat) / len(traced_lat)) / (sum(lat) / len(lat))
            res["layers"] = spans.layer_metrics(rec, len(traced_lat), ratio)
            res["traced_ops"] = len(traced_lat)
            if spans_path:
                rec.save(spans_path)
        return res


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())

    warm = Loop({"ops": plan["warmup"]})
    for op in plan["warmup"]:
        warm.one(op)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(plan)
    res = loop.passes(args.seconds, args.trace, args.spans)
    res.update({
        "attempted": loop.attempted, "failed": loop.failed + warm.failed,
        "failures": warm.failures + loop.failures,
        "targets": loop.targets, "found": loop.found,
        "digests": loop.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    Path(args.out).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
