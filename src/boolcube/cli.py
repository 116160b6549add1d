"""Batch front-end: parse set documents, run the analyses, emit reports.

Exit codes: 0 ok, 2 parse/parameter error (a dimension outside [1, 24]
for analyze and search or [1, 4] for search --exhaustive and sweep, or a
construct parameter the kind does not take), 3 constant set, 4 no (b, c)
coloring on either search route (`Infeasible`), 5 sweep violation, 141
stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .cube_core import VertexSet, _check_dimension, _mask_bytes, make_set
from .coloring import ParameterMatrix
from .theorem import sweep, verify
from .search import (DEFAULT_BUDGET, Infeasible, backtrack_search,
                     canonical_mask, construct, enumerate_perfect)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONSTANT = 3
EXIT_INFEASIBLE = 4
EXIT_VIOLATION = 5
EXIT_PIPE = 141


def _frac(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def parse_document(doc: dict) -> VertexSet:
    """SetDocument: {"n": ..} plus exactly one of "vertices" / "mask_hex"."""
    if not isinstance(doc, dict) or "n" not in doc:
        raise ValueError("document must be an object with an 'n' field")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("'n' must be an integer")
    _check_dimension(n)
    has_v = "vertices" in doc
    has_m = "mask_hex" in doc
    if has_v == has_m:
        raise ValueError("exactly one of 'vertices' or 'mask_hex' is required")
    if has_v:
        if not isinstance(doc["vertices"], list):
            raise ValueError("'vertices' must be a list")
        return make_set(n, doc["vertices"])
    hexstr = doc["mask_hex"]
    if not isinstance(hexstr, str):
        raise ValueError("'mask_hex' must be a string")
    expected = max(1, (1 << n) // 4)
    if len(hexstr) != expected:
        raise ValueError("mask_hex must have %d digits for n=%d"
                         % (expected, n))
    if len(hexstr) % 2:
        hexstr = "0" + hexstr
    try:
        raw = bytes.fromhex(hexstr)
        if 2 * len(raw) != len(hexstr):  # fromhex skips whitespace
            raise ValueError("whitespace is not a hex digit")
    except ValueError as exc:
        raise ValueError("bad hex digits in mask_hex: %s" % exc) from None
    return VertexSet(n, int.from_bytes(raw, "little"))


def serialize_document(S: VertexSet, as_mask: bool = False) -> dict:
    if as_mask:  # n <= 2 fits one digit, the last of the byte's two
        hexstr = _mask_bytes(S).tobytes().hex()
        return {"n": S.n, "mask_hex": hexstr[-max(1, (1 << S.n) // 4):]}
    return {"n": S.n, "vertices": S.members()}


def build_report(S: VertexSet) -> dict:
    """Full analysis of one set; all rationals as "p/q" in lowest terms.

    Formats `verify`'s result: D and N, recovered exactly from D.
    """
    rep = verify(S)
    dual, dist = rep.dual, rep.distances
    return {
        "version": __version__,
        "n": rep.n,
        "size": rep.size,
        "complemented": rep.complemented,
        "rho": _frac(rep.rho),
        "cor": rep.cor,
        "nei": _frac(rep.nei),
        "lhs": _frac(rep.lhs),
        "slack": _frac(rep.slack),
        "is_perfect": rep.is_perfect,
        "matrix": None if rep.matrix is None else {
            "b": rep.matrix.b, "c": rep.matrix.c, "rows": rep.matrix.rows},
        "fdf_bound_ok": rep.fdf_bound_ok,
        "bf_bound_ok": rep.bf_bound_ok,
        "distance_counts": list(dist.counts),
        "distance_distribution": [_frac(x) for x in dist.B],
        "dual_counts": list(dual.duals),
        "dual_distribution": [_frac(x) for x in dual.Bprime],
        "spectral_support": list(dual.support),
    }


def _print_report(rep: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep, indent=2, sort_keys=True))
        return
    print("n=%d |S|=%d rho=%s%s" % (rep["n"], rep["size"], rep["rho"],
                                    " (complemented)" if rep["complemented"] else ""))
    print("cor=%d nei=%s" % (rep["cor"], rep["nei"]))
    print("lhs=%s slack=%s" % (rep["lhs"], rep["slack"]))
    print("perfect coloring: %s" % rep["is_perfect"])
    if rep["matrix"]:
        print("matrix: b=%d c=%d rows=%s" % (rep["matrix"]["b"],
                                             rep["matrix"]["c"],
                                             rep["matrix"]["rows"]))
    print("spectral support: %s" % rep["spectral_support"])
    print("B  = %s" % rep["distance_distribution"])
    print("B' = %s" % rep["dual_distribution"])
    print("fdf_bound_ok=%s bf_bound_ok=%s" % (rep["fdf_bound_ok"],
                                              rep["bf_bound_ok"]))


def _load_input(path: str | None):
    if path in (None, "-"):
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def cmd_analyze(args) -> int:
    try:
        S = parse_document(_load_input(args.input))
    except (OSError, ValueError, json.JSONDecodeError, RecursionError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    try:
        rep = build_report(S)
    except ValueError as exc:
        print("rejected: %s" % exc, file=sys.stderr)
        return EXIT_CONSTANT
    _print_report(rep, args.json)
    return EXIT_OK


def cmd_construct(args) -> int:
    try:
        S = construct(args.kind.replace("-", "_"), n=args.n, v=args.v,
                      eps=args.eps, m=args.m, coord=args.coord)
    except (TypeError, ValueError) as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    print(json.dumps(serialize_document(S, as_mask=args.as_mask),
                     sort_keys=True))
    return EXIT_OK


def _check_search_args(args) -> None:
    """The flag rules the engines cannot see; the engines check the rest."""
    if args.budget < 0:
        raise ValueError("--budget must be >= 0")
    if args.max_results is not None and args.max_results < 1:
        raise ValueError("--max-results must be >= 1")
    if args.max_results is not None and args.exhaustive:
        raise ValueError("--max-results applies to backtracking only; "
                         "--exhaustive lists every coloring")


def cmd_search(args) -> int:
    target = ParameterMatrix(args.n, args.b, args.c)
    try:
        _check_search_args(args)
        if args.exhaustive:
            result = enumerate_perfect(args.n, target)
        else:
            result = backtrack_search(args.n, target, budget=args.budget,
                                      max_results=args.max_results)
    except Infeasible as exc:
        print("infeasible parameters: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print("parameter error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    found = result.found
    if args.canonical:  # after either route: one set per translation class
        found = [VertexSet(args.n, m)
                 for m in sorted({canonical_mask(S) for S in found})]
    out = {
        "summary": {
            "n": result.n,
            "b": args.b,
            "c": args.c,
            "found": len(found),
            "exhaustive": result.exhaustive,
            "nodes": result.nodes,
        },
        "sets": [serialize_document(S, as_mask=args.as_mask) for S in found],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    if args.trace:
        print(json.dumps({
            "nodes": result.nodes,
            "prunes": {"balance": result.balance_prunes,
                       "own": result.own_prunes,
                       "neighbour": result.neighbour_prunes},
            "max_depth": result.max_depth,
            "blocks": {"recorded": result.blocks_recorded,
                       "replayed": result.blocks_replayed},
            "stop_reason": result.stop_reason, "swapped": result.swapped,
        }, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    try:
        summary = sweep(args.n)
    except ValueError as exc:
        print("parameter error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    dt = time.perf_counter() - t0
    print("sweep n=%d: %d subsets checked in %.3fs" % (args.n,
                                                       summary.checked, dt))
    print("equality cases: %d, perfect colorings: %d, "
          "Bierbrauer-Friedman equality cases: %d"
          % (summary.equality_cases, summary.perfect_count,
             summary.bf_equality_cases))
    if summary.violations:
        print("VIOLATION at masks %s" % (summary.violations,),
              file=sys.stderr)
        return EXIT_VIOLATION
    print("no violations")
    return EXIT_OK


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="boolcube",
                                description="Boolean n-cube set analyzer")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a set document")
    pa.add_argument("input", nargs="?", default=None,
                    help="document path (default: stdin)")
    pa.add_argument("--json", action="store_true", help="JSON report")

    pc = sub.add_parser("construct", help="emit a known perfect coloring")
    pc.add_argument("kind", choices=["hamming", "affine", "half-cube"])
    pc.add_argument("--m", type=int, help="hamming: n = 2^m - 1")
    pc.add_argument("--n", type=int, help="cube dimension")
    pc.add_argument("--v", help="affine: defining vector, e.g. 110")
    pc.add_argument("--eps", type=int, help="affine: constant term")
    pc.add_argument("--coord", type=int, help="half-cube: pinned coordinate")
    pc.add_argument("--as-mask", action="store_true",
                    help="emit mask_hex instead of a vertex list")

    ps = sub.add_parser("search", help="search for perfect colorings")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--b", type=int, required=True)
    ps.add_argument("--c", type=int, required=True)
    ps.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="node budget of the backtracking search; "
                         "--exhaustive ignores it")
    ps.add_argument("--max-results", type=int, default=None,
                    help="stop the backtracking search after this many "
                         "colorings (not with --exhaustive)")
    ps.add_argument("--exhaustive", action="store_true",
                    help="brute force all subsets (n <= 4)")
    ps.add_argument("--canonical", action="store_true",
                    help="dedupe up to XOR-translation")
    ps.add_argument("--as-mask", action="store_true")
    ps.add_argument("--trace", action="store_true",
                    help="print the search's nodes, prunes per rule, "
                         "deepest node, recorded and replayed blocks and "
                         "stop reason as one JSON line on stderr")

    pw = sub.add_parser("sweep", help="exhaustive theorem validation")
    pw.add_argument("--n", type=int, required=True)
    return p


def main(argv=None) -> int:
    """Run one command.  The parser is built once per process, and the
    command is looked up by name at call time, so a rebinding of
    `cmd_<command>` in this module is the function that runs.  A closed
    stdout exits EXIT_PIPE; fd 1 then goes to os.devnull for the flush."""
    args = _parser().parse_args(argv)
    try:
        code = globals()["cmd_" + args.command](args)
        print(end="", flush=True)  # a no-op if sys.stdout is None (fd 1 shut)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
