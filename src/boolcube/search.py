"""Constructions of known perfect colorings (affine, Hamming code, half-cube)
and exhaustive / backtracking discovery of perfect 2-colorings at small n."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cube_core import N_MAX, VertexSet, index_to_vertex, vertex_index, _check_dimension, _check_vertex
from .coloring import ParameterMatrix, check_perfect

ENUMERATE_N_MAX = 4


@dataclass(frozen=True)
class Construction:
    kind: str  # "affine" | "hamming" | "half_cube"
    n: Optional[int] = None
    v: Optional[str] = None   # affine: the defining vector
    eps: int = 0              # affine: the constant term
    m: Optional[int] = None   # hamming: n = 2^m - 1
    coord: int = 1            # half_cube: the pinned coordinate


def hamming_code(m: int) -> VertexSet:
    """Codewords of the kernel of the parity-check matrix whose columns are
    the binary expansions of 1..n, n = 2^m - 1."""
    if m < 2:
        raise ValueError("hamming construction needs m >= 2")
    n = (1 << m) - 1
    if n > N_MAX:
        raise ValueError("hamming(m=%d) gives n=%d beyond the cap %d"
                         % (m, n, N_MAX))
    mask = 0
    for idx in range(1 << n):
        syn = 0
        rest = idx
        while rest:
            low = rest & -rest
            syn ^= n - (low.bit_length() - 1)  # bit p from LSB is coordinate n-p
            rest ^= low
        if syn == 0:
            mask |= 1 << idx
    return VertexSet(n, mask)


def affine_coloring(n: int, v: str, eps: int = 0) -> VertexSet:
    """{x : <x, v> = eps}; a perfect coloring with b = c = wt(v)."""
    _check_dimension(n)
    _check_vertex(v, n)
    vi = vertex_index(v)
    if vi == 0:
        raise ValueError("affine construction needs a nonzero vector")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    mask = 0
    for idx in range(1 << n):
        if (idx & vi).bit_count() % 2 == eps:
            mask |= 1 << idx
    return VertexSet(n, mask)


def half_cube(n: int, coord: int = 1) -> VertexSet:
    """{x : x_coord = 0}; the face coloring with b = c = 1."""
    _check_dimension(n)
    if not 1 <= coord <= n:
        raise ValueError("coordinate %r out of range" % (coord,))
    bit = 1 << (n - coord)
    mask = 0
    for idx in range(1 << n):
        if not idx & bit:
            mask |= 1 << idx
    return VertexSet(n, mask)


def construct(c: Construction) -> VertexSet:
    if c.kind == "hamming":
        S = hamming_code(c.m)
    elif c.kind == "affine":
        S = affine_coloring(c.n, c.v, c.eps)
    elif c.kind == "half_cube":
        S = half_cube(c.n, c.coord)
    else:
        raise ValueError("unknown construction kind %r" % (c.kind,))
    assert check_perfect(S).is_perfect
    return S


@dataclass(frozen=True)
class SearchResult:
    n: int
    target: Optional[ParameterMatrix]
    found: tuple  # VertexSets, in increasing mask order
    exhaustive: bool
    nodes: int = 0


def canonical_mask(S: VertexSet) -> int:
    """Lexicographically smallest mask over all XOR-translations."""
    best = S.mask
    members = S.member_indices()
    for t in range(1 << S.n):
        m = 0
        for i in members:
            m |= 1 << (i ^ t)
        if m < best:
            best = m
    return best


def _dedupe_canonical(sets: list[VertexSet]) -> list[VertexSet]:
    seen = {}
    for S in sets:
        key = canonical_mask(S)
        if key not in seen:
            seen[key] = VertexSet(S.n, key)
    return [seen[k] for k in sorted(seen)]


def enumerate_perfect(n: int, target: Optional[ParameterMatrix] = None,
                      canonical: bool = False) -> SearchResult:
    """Brute force over all 2^(2^n) subsets; every hit certified by the
    direct per-vertex scan."""
    if not 1 <= n <= ENUMERATE_N_MAX:
        raise ValueError("exhaustive enumeration supports n <= %d"
                         % ENUMERATE_N_MAX)
    size = 1 << n
    nbr = [[u ^ (1 << k) for k in range(n)] for u in range(size)]
    found = []
    for mask in range(1, (1 << size) - 1):
        bits = [(mask >> u) & 1 for u in range(size)]
        ref_in = ref_out = None
        ok = True
        for u in range(size):
            cnt = 0
            for w in nbr[u]:
                cnt += bits[w]
            if bits[u]:
                if ref_in is None:
                    ref_in = cnt
                elif cnt != ref_in:
                    ok = False
                    break
            else:
                if ref_out is None:
                    ref_out = cnt
                elif cnt != ref_out:
                    ok = False
                    break
        if not ok:
            continue
        b, c = n - ref_in, ref_out
        if target is not None and (b, c) != (target.b, target.c):
            continue
        S = VertexSet(n, mask)
        verdict = check_perfect(S)
        assert verdict.is_perfect and (verdict.matrix.b, verdict.matrix.c) == (b, c)
        found.append(S)
    if canonical:
        found = _dedupe_canonical(found)
    return SearchResult(n, target, tuple(found), exhaustive=True)


def _check_feasible(n: int, target: ParameterMatrix) -> int:
    b, c = target.b, target.c
    if not (1 <= b <= n and 1 <= c <= n):  # the cube is connected
        raise ValueError("parameters b=%r c=%r out of range [1, %d]: a "
                         "non-constant perfect coloring has b, c >= 1"
                         % (b, c, n))
    if (b + c) % 2:
        raise ValueError("b + c must be even (b=%d, c=%d)" % (b, c))
    total = 1 << n
    if (c * total) % (b + c):
        raise ValueError("no integer |S| satisfies b|S| = c(2^n - |S|) "
                         "for b=%d c=%d n=%d" % (b, c, n))
    return (c * total) // (b + c)


def backtrack_search(n: int, target: ParameterMatrix, budget: int = 10 ** 7,
                     max_results: Optional[int] = None,
                     canonical: bool = False) -> SearchResult:
    """Depth-first color assignment in vertex-index order with sound pruning.

    Prunes on any vertex whose final in-S neighbor count can no longer reach
    its color's requirement (b out-of-S neighbors for S-vertices, c in-S
    neighbors for the rest), plus the cardinality balance.  Hitting the node
    budget or max_results returns partial results with exhaustive=False.
    """
    _check_dimension(n)
    s_target = _check_feasible(n, target)
    size = 1 << n
    need_in = n - target.b   # required in-S neighbors of an S-vertex
    need_out = target.c      # required in-S neighbors of a non-S vertex
    lo_need = min(need_in, need_out)
    hi_need = max(need_in, need_out)
    nbr = [[u ^ (1 << k) for k in range(n)] for u in range(size)]

    color = [-1] * size
    cnt_in = [0] * size    # decided in-S neighbors
    decided = [0] * size   # decided neighbors
    found: list[VertexSet] = []
    state = {"nodes": 0, "exhausted": True, "size": 0}

    def feasible(u: int) -> bool:
        cs = cnt_in[u]
        und = n - decided[u]
        col = color[u]
        if col == 1:
            return cs <= need_in <= cs + und
        if col == 0:
            return cs <= need_out <= cs + und
        return cs <= hi_need and cs + und >= lo_need

    def dfs(d: int) -> bool:
        if d == size:
            S = VertexSet(n, sum(1 << u for u in range(size) if color[u] == 1))
            verdict = check_perfect(S)
            assert verdict.is_perfect and \
                (verdict.matrix.b, verdict.matrix.c) == (target.b, target.c)
            found.append(S)
            return max_results is not None and len(found) >= max_results
        remaining = size - d - 1
        for col in (1, 0):
            if col == 1 and state["size"] >= s_target:
                continue
            if col == 0 and state["size"] + remaining < s_target:
                continue
            state["nodes"] += 1
            if state["nodes"] > budget:
                state["exhausted"] = False
                return True
            color[d] = col
            state["size"] += col
            for u in nbr[d]:
                decided[u] += 1
                cnt_in[u] += col
            ok = feasible(d) and all(feasible(u) for u in nbr[d])
            if ok and dfs(d + 1):
                return True
            color[d] = -1
            state["size"] -= col
            for u in nbr[d]:
                decided[u] -= 1
                cnt_in[u] -= col
        return False

    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, size + 100))
    try:
        stopped = dfs(0)
    finally:
        sys.setrecursionlimit(old_limit)
    if stopped and max_results is not None and len(found) >= max_results:
        state["exhausted"] = False
    sets = _dedupe_canonical(found) if canonical else found
    return SearchResult(n, target, tuple(sets),
                        exhaustive=state["exhausted"], nodes=state["nodes"])
