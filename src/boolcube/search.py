"""Constructions of known perfect colorings (affine, Hamming code, half-cube)
and exhaustive / backtracking discovery of perfect 2-colorings at small n."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cube_core import (N_MAX, VertexSet, _check_dimension, _check_vertex,
                        _low_bit_pattern, complement, vertex_index)
from .coloring import ParameterMatrix, _all_subsets, check_perfect

ENUMERATE_N_MAX = 4


@dataclass(frozen=True)
class Construction:
    kind: str  # "affine" | "hamming" | "half_cube"
    n: Optional[int] = None
    v: Optional[str] = None   # affine: the defining vector
    eps: int = 0              # affine: the constant term
    m: Optional[int] = None   # hamming: n = 2^m - 1
    coord: int = 1            # half_cube: the pinned coordinate


def _odd_parity_mask(n: int, v: int) -> int:
    """Bitmask over 2^n positions selecting indices i with popcount(i & v)
    odd: the XOR, over the bits k of v, of the indices whose bit k is 1."""
    full = (1 << (1 << n)) - 1
    odd = 0
    for k in range(n):
        if v >> k & 1:
            odd ^= full ^ _low_bit_pattern(n, k)
    return odd


def hamming_code(m: int) -> VertexSet:
    """Codewords of the kernel of the parity-check matrix whose columns are
    the binary expansions of 1..n, n = 2^m - 1."""
    if m < 2:
        raise ValueError("hamming construction needs m >= 2")
    n = (1 << m) - 1
    if n > N_MAX:
        raise ValueError("hamming(m=%d) gives n=%d beyond the cap %d"
                         % (m, n, N_MAX))
    # Bit p of an index (from the LSB) is coordinate n - p, whose column is
    # the binary expansion of n - p; syndrome bit j is the parity of the
    # index's bits p with bit j of n - p set.
    nonzero = 0
    for j in range(m):
        row = sum(1 << p for p in range(n) if (n - p) >> j & 1)
        nonzero |= _odd_parity_mask(n, row)
    return complement(VertexSet(n, nonzero))


def affine_coloring(n: int, v: str, eps: int = 0) -> VertexSet:
    """{x : <x, v> = eps}; a perfect coloring with b = c = wt(v)."""
    _check_dimension(n)
    _check_vertex(v, n)
    vi = vertex_index(v)
    if vi == 0:
        raise ValueError("affine construction needs a nonzero vector")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    odd = VertexSet(n, _odd_parity_mask(n, vi))
    return odd if eps else complement(odd)


def half_cube(n: int, coord: int = 1) -> VertexSet:
    """{x : x_coord = 0}; the face coloring with b = c = 1."""
    _check_dimension(n)
    if not 1 <= coord <= n:
        raise ValueError("coordinate %r out of range" % (coord,))
    return VertexSet(n, _low_bit_pattern(n, n - coord))


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
    # VertexSets, in increasing mask order, except that backtrack_search
    # without canonical lists them in search order
    found: tuple
    stop_reason: str  # "complete" | "budget" | "max_results"
    nodes: int = 0

    @property
    def exhaustive(self) -> bool:
        return self.stop_reason == "complete"


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
    """Brute force over all 2^(2^n) subsets with the exhaustive engine that
    `sweep` also runs; every hit certified by the direct per-vertex scan."""
    if not 1 <= n <= ENUMERATE_N_MAX:
        raise ValueError("exhaustive enumeration supports n <= %d"
                         % ENUMERATE_N_MAX)
    _, _, _, perfect, bs, cs = _all_subsets(n)
    found = []
    for mask in np.flatnonzero(perfect).tolist():
        b, c = int(bs[mask]), int(cs[mask])
        if target is not None and (b, c) != (target.b, target.c):
            continue
        S = VertexSet(n, mask)
        verdict = check_perfect(S)
        assert verdict.is_perfect and (verdict.matrix.b, verdict.matrix.c) == (b, c)
        found.append(S)
    if canonical:
        found = _dedupe_canonical(found)
    return SearchResult(n, target, tuple(found), stop_reason="complete")


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

    Vertex d gets color 1 (in S) before color 0.  A node is one assignment;
    it is pruned when the cardinality balance can no longer be met, or when
    d or a neighbor d ^ 2^k can no longer reach its color's requirement of
    in-S neighbors (n - b for S-vertices, c for the rest; an undecided
    vertex must still be able to meet one of the two).  Every leaf is
    certified by `check_perfect`.  The search stops after `budget` nodes
    or `max_results` colorings; `stop_reason` says which, or "complete".

    The traversal is one loop over an explicit cursor (depth d, color to
    try next): the colors assigned so far, 2^n bytes, are the stack, and
    neighbors are computed as d ^ 2^k, with no per-vertex table and no
    recursion.  Besides the colors it keeps two 2^n-entry counters: the
    decided and the in-S neighbors of every vertex.
    """
    _check_dimension(n)
    if max_results is not None and max_results < 1:
        raise ValueError("max_results must be >= 1, got %r" % (max_results,))
    s_target = _check_feasible(n, target)
    size = 1 << n
    need = (target.c, n - target.b)  # required in-S neighbors, by color
    lo_need, hi_need = min(need), max(need)
    bits = [1 << k for k in range(n)]

    color = bytearray(size)  # meaningful below the cursor only
    cnt_in = [0] * size      # decided in-S neighbors
    decided = [0] * size     # decided neighbors
    found: list[VertexSet] = []
    nodes = in_s = 0
    stop = "complete"
    d, col = 0, 1
    while True:
        if col == 1 and in_s >= s_target:
            col = 0
        if col == 0 and in_s + size - d - 1 < s_target:
            col = -1
        if col >= 0:
            nodes += 1
            if nodes > budget:
                stop = "budget"
                break
            color[d] = col
            in_s += col
            cs = cnt_in[d]
            ok = cs <= need[col] <= cs + n - decided[d]
            for bit in bits:
                u = d ^ bit
                cs = cnt_in[u] = cnt_in[u] + col
                dec = decided[u] = decided[u] + 1
                if ok:
                    if u < d:
                        ok = cs <= need[color[u]] <= cs + n - dec
                    else:
                        ok = cs <= hi_need and cs + n - dec >= lo_need
            if ok:
                if d + 1 < size:
                    d += 1
                    col = 1
                    continue
                packed = np.packbits(np.frombuffer(color, dtype=np.uint8),
                                     bitorder="little")
                S = VertexSet(n, int.from_bytes(packed.tobytes(), "little"))
                verdict = check_perfect(S)
                assert verdict.is_perfect and \
                    (verdict.matrix.b, verdict.matrix.c) == (target.b, target.c)
                found.append(S)
                if max_results is not None and len(found) >= max_results:
                    stop = "max_results"
                    break
        elif d == 0:
            break
        else:
            d -= 1
        # retract the color of d and go on to the next one
        col = color[d]
        in_s -= col
        for bit in bits:
            u = d ^ bit
            cnt_in[u] -= col
            decided[u] -= 1
        col -= 1
    sets = _dedupe_canonical(found) if canonical else found
    return SearchResult(n, target, tuple(sets), stop_reason=stop, nodes=nodes)
