"""Independent numpy oracles and the checks every op's output must pass.

Nothing here calls boolcube: perfectness and (b, c) come from a direct
neighbour count over the whole cube, and the report checks use exact
integer identities (Parseval, N_0 = |S|, sum N_i = |S|^2, ...).
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np


def membership_from_hex(hexstr: str, n: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=1 << n)


def neighbour_verdict(a: np.ndarray, n: int) -> dict:
    """In-S neighbour count of every vertex, by flipping one axis of a
    (.., 2, 2^k) view per coordinate; returns N_1 and the perfect verdict."""
    cnt = np.zeros(1 << n, dtype=np.uint8)
    for k in range(n):
        cnt += a.reshape(-1, 2, 1 << k)[:, ::-1, :].reshape(-1)
    inside = a == 1
    cin, cout = cnt[inside], cnt[~inside]
    perfect = bool(cin.size and cout.size and cin.min() == cin.max()
                   and cout.min() == cout.max())
    return {"n1": int(cin.sum(dtype=np.int64)), "perfect": perfect,
            "b": n - int(cin[0]) if perfect else None,
            "c": int(cout[0]) if perfect else None}


def perfect_colorings(n: int) -> dict:
    """{(b, c): sorted masks of the perfect colorings of E^n with those
    parameters}, by brute force over every non-constant subset."""
    size = 1 << n
    masks = np.arange(1, (1 << size) - 1, dtype=np.int64)
    vid = np.arange(size, dtype=np.int64)
    A = ((masks[:, None] >> vid[None, :]) & 1).astype(np.int64)
    adj = (np.bitwise_count((vid[:, None] ^ vid[None, :]).astype(np.uint64))
           == 1).astype(np.int64)
    C = A @ adj
    big = size + 1
    in_lo = np.where(A == 1, C, big).min(axis=1)
    in_hi = np.where(A == 1, C, -1).max(axis=1)
    out_lo = np.where(A == 0, C, big).min(axis=1)
    out_hi = np.where(A == 0, C, -1).max(axis=1)
    ok = (in_lo == in_hi) & (out_lo == out_hi)
    out: dict = {}
    for m, b, c in zip(masks[ok], n - in_lo[ok], out_lo[ok]):
        out.setdefault((int(b), int(c)), []).append(int(m))
    return out


def translation_classes(masks: list[int], n: int) -> list[int]:
    """Sorted smallest masks over all XOR-translations, one per class."""
    vid = np.arange(1 << n, dtype=np.int64)
    A = (np.array(masks, dtype=np.int64)[:, None] >> vid[None, :]) & 1
    weights = np.int64(1) << vid
    best = np.stack([A[:, vid ^ t] @ weights for t in range(1 << n)]).min(axis=0)
    return sorted({int(m) for m in best})


def _frac(s: str) -> Fraction:
    p, q = s.split("/")
    return Fraction(int(p), int(q))


class CheckFailed(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _certify(doc: dict, n: int, b: int, c: int) -> None:
    _expect(doc.get("n") == n, "set document has n=%r" % doc.get("n"))
    a = membership_from_hex(doc["mask_hex"], n)
    v = neighbour_verdict(a, n)
    _expect(v["perfect"] and (v["b"], v["c"]) == (b, c),
            "set is not a perfect (%d,%d) coloring: %r" % (b, c, v))


def check_analyze(f: dict, out: str) -> None:
    r = json.loads(out)
    n, size = f["n"], f["size"]
    _expect(r["n"] == n and r["size"] == size
            and r["complemented"] == f["complemented"], "n/size/complemented")
    N, D = r["distance_counts"], r["dual_counts"]
    _expect(len(N) == n + 1 and len(D) == n + 1, "distribution lengths")
    _expect(N[0] == size and sum(N) == size * size, "N_0 = |S|, sum N = |S|^2")
    _expect(N[1] == f["n1"], "N_1 against the neighbour count")
    _expect(D[0] == size * size and sum(D) == (1 << n) * size,
            "D_0 = |S|^2, sum D = 2^n |S| (Parseval)")
    _expect(all(d >= 0 for d in D), "D_k >= 0")
    _expect([_frac(x) for x in r["distance_distribution"]]
            == [Fraction(x, size) for x in N], "B = N / |S|")
    _expect([_frac(x) for x in r["dual_distribution"]]
            == [Fraction(x, size * size) for x in D], "B' = D / |S|^2")
    support = [k for k in range(n + 1) if D[k]]
    _expect(r["spectral_support"] == support, "spectral support = {k: D_k > 0}")
    cor = min(k for k in support if k > 0) - 1
    _expect(r["cor"] == cor, "cor = min{k > 0 : D_k > 0} - 1")
    rho = Fraction(size, 1 << n)
    nei = Fraction(f["n1"], size)
    lhs = nei + 2 * (cor + 1) * (1 - rho)
    _expect(_frac(r["rho"]) == rho and _frac(r["nei"]) == nei
            and _frac(r["lhs"]) == lhs and _frac(r["slack"]) == n - lhs,
            "rho, nei, lhs, slack")
    _expect(n - lhs >= 0, "the inequality holds")
    _expect(r["is_perfect"] == f["perfect"], "perfect verdict")
    _expect((n - lhs == 0) == r["is_perfect"], "slack = 0 iff perfect")
    if f["perfect"]:
        _expect(r["matrix"]["b"] == f["b"] and r["matrix"]["c"] == f["c"],
                "parameter matrix")
    else:
        _expect(r["matrix"] is None, "no matrix for a non-perfect set")
    _expect(r["fdf_bound_ok"] == (2 * size == 1 << n or 3 * (cor + 1) <= 2 * n),
            "Fon-Der-Flaass bound flag")
    _expect(r["bf_bound_ok"] == (rho >= 1 - Fraction(n, 2 * (cor + 1))),
            "Bierbrauer-Friedman bound flag")
    w = f.get("planted_weight")
    if w is not None:
        _expect(r["matrix"] == {"b": w, "c": w, "rows": [[n - w, w], [w, n - w]]}
                and cor == w - 1 and r["slack"] == "0/1",
                "planted affine coloring: b = c = wt(v), cor = wt(v) - 1")
    if f.get("hamming"):
        _expect(r["matrix"]["b"] == 15 and r["matrix"]["c"] == 1 and cor == 7,
                "Hamming(15): (b, c) = (15, 1), cor = 7")


def check_search(f: dict, out: str) -> bool:
    """Returns whether the search found a (re-certified) coloring."""
    r = json.loads(out)
    s = r["summary"]
    _expect((s["n"], s["b"], s["c"]) == (f["n"], f["b"], f["c"]), "summary")
    _expect(s["found"] == len(r["sets"]) <= 1, "at most one result")
    _expect(s["nodes"] <= f["budget"] + 1, "node budget respected")
    for doc in r["sets"]:
        _certify(doc, f["n"], f["b"], f["c"])
    return bool(r["sets"])


def check_exhaustive(f: dict, out: str) -> None:
    """--canonical: one set per XOR-translation class, its smallest mask."""
    r = json.loads(out)
    masks = sorted(int.from_bytes(bytes.fromhex(doc["mask_hex"]), "little")
                   for doc in r["sets"])
    _expect(r["summary"]["found"] == len(masks) and masks == f["classes"],
            "found %d classes, expected %d" % (len(masks), len(f["classes"])))
    for doc in r["sets"]:
        _certify(doc, f["n"], f["b"], f["c"])


SWEEP_TIME = re.compile(r" in [0-9.]+s")


def check_sweep(f: dict, out: str) -> None:
    m = re.search(r"equality cases: (\d+), perfect colorings: (\d+)", out)
    _expect(m is not None and int(m.group(1)) == int(m.group(2)) == f["perfect"],
            "equality cases = perfect colorings = %d" % f["perfect"])
    _expect("%d subsets checked" % ((1 << (1 << f["n"])) - 2) in out,
            "every non-constant subset checked")
    _expect(out.rstrip().endswith("no violations"), "no violations")


def check_construct(f: dict, out: str) -> None:
    doc = json.loads(out)
    _certify(doc, f["n"], f["b"], f["c"])
    _expect(doc["mask_hex"] == f["mask_hex"], "the constructed set itself")


def normalise(kind: str, out: str) -> str:
    """The output with run-dependent text (the sweep's own timing) masked,
    so that its digest repeats exactly."""
    return SWEEP_TIME.sub(" in <t>s", out) if kind == "sweep" else out


def check(op: dict, rc: int, out: str) -> bool | None:
    """Raises CheckFailed on a wrong output; for searches returns whether a
    coloring was found, else None."""
    _expect(rc == 0, "exit code %r" % (rc,))
    kind, f = op["kind"], op["facts"]
    if kind == "analyze":
        check_analyze(f, out)
    elif kind == "search":
        return check_search(f, out)
    elif kind == "exhaustive":
        check_exhaustive(f, out)
    elif kind == "sweep":
        check_sweep(f, out)
    else:
        check_construct(f, out)
    return None
