"""Seeded inputs for the three workloads.

`make_plan(workload, seed, root)` writes the workload's set documents under
`root` and returns the plan: the ops of one pass, in order, each with the
facts its output is checked against, plus the warm-up ops.  Everything is
drawn from a generator seeded only by (seed, workload name), and the
documents are serialised with sorted keys, so one seed always gives
byte-identical documents.  The facts come from numpy code in this package;
boolcube's own constructors are never used to make inputs.
"""
from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from oracle import neighbour_verdict, perfect_colorings, translation_classes

WORKLOADS = ("analyze-dense", "analyze-sparse", "colorings")

# analyze-dense, one pass: (n, random sets, planted affine colorings).
# A quarter of the ops are at n = 20, so p90 falls among the random n = 20
# reports and p50 among the random n = 18 ones.
DENSE_PASS = ((20, 3, 1), (18, 9, 3))

# analyze-sparse, one pass: |S| on a log-uniform grid over 2^6..2^12, one
# op per grid point, at a fixed dimension per point; the seed draws the
# members.  Fixing the sizes keeps the cost of a pass the same across seeds.
SPARSE_POINTS = 72
SPARSE_LOG2_MIN, SPARSE_LOG2_MAX = 6, 12
SPARSE_N_MIN, SPARSE_N_MAX = 10, 16

# colorings, one pass: backtracking targets per dimension with a budget of
# 4 * 2^n nodes.  Product and colour-swapped targets are drawn at n <= 11
# only, where a miss costs at most 4 * 2^11 nodes; larger dimensions draw
# affine targets, which all cost about 1.5 * 2^n nodes.  The hard miss at
# large n is the fixed (18, 2, 2) target.  The sixteen n = 12 targets are the
# middle of a pass and the six n = 14 targets its upper tenth, so that p50
# and p90 each fall inside a group of like ops rather than between two.
SEARCH_TARGETS = {7: 3, 8: 3, 9: 3, 10: 3, 11: 3, 12: 16, 13: 6, 14: 6,
                  15: 1, 16: 1}
MIXED_FAMILY_N_MAX = 11
SEARCH_BUDGET_FACTOR = 4
HARD_TARGET = (18, 2, 2)
HARD_BUDGET = 100_000
CONSTRUCTS = (("affine", 18), ("affine", 12), ("half-cube", 16),
              ("half-cube", 10), ("hamming", 15), ("hamming", 7))


def rng_for(workload: str, seed: int) -> np.random.Generator:
    key = zlib.crc32(workload.encode())
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def affine_membership(n: int, v: int, eps: int) -> np.ndarray:
    """{x : <x, v> = eps} as a 0/1 array over vertex indices."""
    idx = np.arange(1 << n, dtype=np.int64)
    return ((np.bitwise_count(idx & v) & 1) == eps).astype(np.uint8)


def hamming_membership(n: int) -> np.ndarray:
    """Kernel of the parity-check matrix with columns 1..n (n = 2^m - 1);
    bit p of an index (from the least significant) is coordinate n - p."""
    idx = np.arange(1 << n, dtype=np.int64)
    syn = np.zeros(1 << n, dtype=np.int64)
    for p in range(n):
        syn ^= np.where((idx >> p) & 1, n - p, 0)
    return (syn == 0).astype(np.uint8)


def mask_hex(a: np.ndarray) -> str:
    return np.packbits(a, bitorder="little").tobytes().hex()


def vertex_list(a: np.ndarray, n: int) -> list[str]:
    return [format(int(i), "0%db" % n) for i in np.flatnonzero(a)]


def _random_vector(rng, n: int, weight: int) -> int:
    coords = rng.choice(n, size=weight, replace=False)
    return int(sum(1 << int(k) for k in coords))


def _analyze_facts(n: int, a: np.ndarray, **extra) -> dict:
    """What an exact report on S must say, computed here independently."""
    size = int(a.sum())
    complemented = 2 * size > (1 << n)
    t = (1 - a) if complemented else a
    verdict = neighbour_verdict(t, n)
    facts = {"n": n, "set_size": size, "complemented": complemented,
             "size": int(t.sum()), "n1": verdict["n1"],
             "perfect": verdict["perfect"], "b": verdict["b"],
             "c": verdict["c"]}
    facts.update(extra)
    return facts


class _Writer:
    def __init__(self, root: Path, rel: str):
        self.dir = root / rel
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rel = rel

    def doc(self, name: str, doc: dict) -> str:
        data = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        (self.dir / (name + ".json")).write_text(data)
        return "%s/%s.json" % (self.rel, name)


def _analyze_op(w: _Writer, name: str, n: int, a: np.ndarray, doc: dict,
                **extra) -> dict:
    return {"id": name, "kind": "analyze",
            "argv": ["analyze", w.doc(name, doc), "--json"],
            "facts": _analyze_facts(n, a, **extra)}


def _dense(rng, w: _Writer) -> list[dict]:
    ops = []
    for n, n_random, n_planted in DENSE_PASS:
        total = 1 << n
        for i in range(n_random):
            # Exact size half +- (1 + k): never balanced, alternately above
            # and below half, so the complement path runs on every pass.
            off = 1 + int(rng.integers(0, total >> 6))
            size = total // 2 + (off if i % 2 else -off)
            a = np.zeros(total, dtype=np.uint8)
            a[rng.choice(total, size=size, replace=False)] = 1
            ops.append(_analyze_op(w, "n%d-random%d" % (n, i), n, a,
                                   {"n": n, "mask_hex": mask_hex(a)}))
        for i in range(n_planted):
            weight = int(rng.integers(1, n + 1))
            v = _random_vector(rng, n, weight)
            a = affine_membership(n, v, int(rng.integers(0, 2)))
            ops.append(_analyze_op(w, "n%d-affine%d" % (n, i), n, a,
                                   {"n": n, "mask_hex": mask_hex(a)},
                                   planted_weight=weight))
    return ops


def sparse_size(point: int) -> int:
    span = SPARSE_LOG2_MAX - SPARSE_LOG2_MIN
    return round(2 ** (SPARSE_LOG2_MIN + span * point / (SPARSE_POINTS - 1)))


def sparse_dimension(point: int, size: int) -> int:
    """Cycles through those of 10..16 where |S| <= 2^(n-1), so that no set
    is complemented."""
    lo = max(SPARSE_N_MIN, (size - 1).bit_length() + 1)
    return lo + (3 * point) % (SPARSE_N_MAX - lo + 1)


def _sparse(rng, w: _Writer) -> list[dict]:
    ops = []
    for p in range(SPARSE_POINTS):
        size = sparse_size(p)
        n = sparse_dimension(p, size)
        a = np.zeros(1 << n, dtype=np.uint8)
        a[rng.choice(1 << n, size=size, replace=False)] = 1
        ops.append(_analyze_op(w, "n%d-size%d" % (n, size), n, a,
                               {"n": n, "vertices": vertex_list(a, n)}))
    # Hamming(15) under a seeded translation and coordinate permutation:
    # still a perfect code, (b, c) = (15, 1), cor = 7.
    n = 15
    base = np.flatnonzero(hamming_membership(n))
    perm = rng.permutation(n)
    moved = np.zeros_like(base)
    for p in range(n):
        moved |= ((base >> p) & 1) << int(perm[p])
    moved ^= int(rng.integers(0, 1 << n))
    a = np.zeros(1 << n, dtype=np.uint8)
    a[moved] = 1
    ops.append(_analyze_op(w, "n15-hamming", n, a,
                           {"n": n, "vertices": vertex_list(a, n)},
                           hamming=True))
    return ops


def search_families(n: int) -> list[list[tuple[int, int]]]:
    """(b, c) pairs with a known perfect coloring of E^n, by family:
    affine (w, w); (k b0, k c0) from the perfect codes (3, 1), (7, 1),
    (15, 1) by block parity and cylinder extension; their colour swaps."""
    affine = [(w, w) for w in range(1, n + 1)]
    product = [(k * m, k) for m in (3, 7, 15) for k in range(1, n // m + 1)]
    swapped = [(c, b) for b, c in product]
    return [affine, product, swapped]


def _search_op(name: str, n: int, b: int, c: int, budget: int) -> dict:
    return {"id": name, "kind": "search",
            "argv": ["search", "--n", str(n), "--b", str(b), "--c", str(c),
                     "--budget", str(budget), "--max-results", "1",
                     "--as-mask"],
            "facts": {"n": n, "b": b, "c": c, "budget": budget}}


def _colorings(rng) -> list[dict]:
    ops = []
    for n, count in SEARCH_TARGETS.items():
        families = search_families(n)
        if n > MIXED_FAMILY_N_MAX:
            families = families[:1]
        for i in range(count):
            fam = families[int(rng.integers(0, len(families)))]
            b, c = fam[int(rng.integers(0, len(fam)))]
            ops.append(_search_op("search-n%d-%d" % (n, i), n, b, c,
                                  SEARCH_BUDGET_FACTOR << n))
    n, b, c = HARD_TARGET
    ops.append(_search_op("search-hard", n, b, c, HARD_BUDGET))

    perfect = perfect_colorings(4)
    pairs = sorted(perfect)
    b, c = pairs[int(rng.integers(0, len(pairs)))]
    ops.append({"id": "exhaustive-n4", "kind": "exhaustive",
                "argv": ["search", "--exhaustive", "--n", "4", "--b", str(b),
                         "--c", str(c), "--canonical", "--as-mask"],
                "facts": {"n": 4, "b": b, "c": c,
                          "classes": translation_classes(perfect[(b, c)], 4)}})
    ops.append({"id": "sweep-n4", "kind": "sweep", "argv": ["sweep", "--n", "4"],
                "facts": {"n": 4, "perfect": sum(map(len, perfect.values()))}})

    for kind, n in CONSTRUCTS:
        if kind == "affine":
            v = _random_vector(rng, n, int(rng.integers(1, n + 1)))
            eps = int(rng.integers(0, 2))
            a = affine_membership(n, v, eps)
            argv = ["construct", "affine", "--n", str(n),
                    "--v", format(v, "0%db" % n), "--eps", str(eps)]
            b = c = bin(v).count("1")
        elif kind == "half-cube":
            coord = int(rng.integers(1, n + 1))
            a = affine_membership(n, 1 << (n - coord), 0)
            argv = ["construct", "half-cube", "--n", str(n),
                    "--coord", str(coord)]
            b = c = 1
        else:
            a = hamming_membership(n)
            argv = ["construct", "hamming", "--m", str((n + 1).bit_length() - 1)]
            b, c = n, 1
        ops.append({"id": "construct-%s-n%d" % (kind, n), "kind": "construct",
                    "argv": argv + ["--as-mask"],
                    "facts": {"n": n, "b": b, "c": c, "mask_hex": mask_hex(a)}})
    return ops


def _warmup(ops: list[dict]) -> list[dict]:
    """One op per dimension among analyze ops, or the sweep, run before
    timing so that weight_table and krawtchouk are filled."""
    seen, out = set(), []
    for op in ops:
        if op["kind"] == "analyze" and op["facts"]["n"] not in seen:
            seen.add(op["facts"]["n"])
            out.append(op)
    return out or [op for op in ops if op["kind"] == "sweep"]


def make_plan(workload: str, seed: int, root: Path) -> dict:
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = rng_for(workload, seed)
    writer = _Writer(root, ".perfbench/inputs/%s-s%d" % (workload, seed))
    if workload == "analyze-dense":
        ops = _dense(rng, writer)
    elif workload == "analyze-sparse":
        ops = _sparse(rng, writer)
    else:
        ops = _colorings(rng)
    # Interleave the kinds of op in an order that is the same for every
    # seed: the allocation history, and with it peak RSS, then depends on
    # the sizes of the inputs, not on the order a seed happened to draw.
    order = np.random.default_rng(0).permutation(len(ops))
    return {"workload": workload, "seed": seed,
            "ops": [ops[i] for i in order], "warmup": _warmup(ops)}

