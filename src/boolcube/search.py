"""Constructions of known perfect colorings (affine, Hamming code, half-cube)
and exhaustive / backtracking discovery of perfect 2-colorings at small n."""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cube_core import (N_MAX, VertexSet, _check_dimension, _check_vertex,
                        _low_bit_pattern, _membership_array, _pack,
                        complement, vertex_index)
from .coloring import ParameterMatrix, _all_subsets, check_perfect


class Infeasible(ValueError):
    """No perfect coloring has the target (b, c) in this dimension."""


@dataclass(frozen=True)
class Construction:
    kind: str  # "affine" | "hamming" | "half_cube"
    n: Optional[int] = None
    v: Optional[str] = None      # affine: the defining vector
    eps: Optional[int] = None    # affine: the constant term
    m: Optional[int] = None      # hamming: n = 2^m - 1
    coord: Optional[int] = None  # half_cube: the pinned coordinate


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
    if m > N_MAX.bit_length():  # then 2^m - 1 > N_MAX: bound m before 2^m
        raise ValueError("hamming construction: m=%d gives dimension "
                         "2^m - 1 > %d" % (m, N_MAX))
    n = (1 << m) - 1
    _check_dimension(n)
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
    """Call the kind's builder; its signature names the kind's parameters,
    which of them are required, and the defaults of the rest."""
    build = {"hamming": hamming_code, "affine": affine_coloring,
             "half_cube": half_cube}.get(c.kind)
    if build is None:
        raise ValueError("unknown construction kind %r" % (c.kind,))
    params = inspect.signature(build).parameters
    given = {k: v for k, v in vars(c).items() if v is not None and k != "kind"}
    for name in given:
        if name not in params:
            raise ValueError("the %s construction takes no %s" % (c.kind, name))
    for name, p in params.items():
        if name not in given and p.default is p.empty:
            raise ValueError("the %s construction needs %s" % (c.kind, name))
    S = build(**given)
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
    # backtrack_search only: colors skipped by the size balance, nodes cut
    # by the vertex's own room or by a neighbor's, and the most vertices
    # colored at once
    balance_prunes: int = 0
    own_prunes: int = 0
    neighbour_prunes: int = 0
    max_depth: int = 0

    @property
    def exhaustive(self) -> bool:
        return self.stop_reason == "complete"


def canonical_mask(S: VertexSet) -> int:
    """Lexicographically smallest mask over all XOR-translations, by
    refinement: of all translations t, keep those whose translate S ^ t
    misses the top index, if any does, then the next index, and so on.  An
    index that splits no candidates stops the search when the candidates'
    differences all map S onto itself: then they all give the same
    translate.  That test runs at most once per 64 indices.  Memory is
    O(2^n): one index of every candidate at a time.
    """
    size = 1 << S.n
    member = _membership_array(S)
    index = np.arange(size)
    cand = index
    check = size
    for i in range(size - 1, -1, -1):
        bit = member[cand ^ i]
        if 0 < np.count_nonzero(bit) < len(cand):
            cand = cand[bit == 0]
            if len(cand) == 1:
                break
        elif i < check:
            if all(np.array_equal(member[index ^ v], member)
                   for v in _span_basis(cand ^ cand[0])):
                break
            check = i - 63
    return _pack(member[index ^ cand[0]])


def _span_basis(vectors: np.ndarray) -> list[int]:
    """A basis of the GF(2) span of the non-negative `vectors`, reduced in
    place: take the largest vector as a pivot, and clear its top bit from
    every vector that has it (exactly those that `^ pivot` makes smaller)."""
    basis = []
    while pivot := vectors.max():
        basis.append(pivot)
        np.minimum(vectors, vectors ^ pivot, out=vectors)
    return basis


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
    perfect, bs, cs = _all_subsets(n)[2:5]  # checks n first
    if target is not None:
        _check_feasible(n, target)
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
    """|S| of a (b, c) coloring of E^n; `Infeasible` when there is none."""
    if target.n != n:
        raise ValueError("target.n=%r differs from n=%r" % (target.n, n))
    b, c = target.b, target.c
    if not (1 <= b <= n and 1 <= c <= n):  # the cube is connected
        raise Infeasible("parameters b=%r c=%r out of range [1, %d]: a "
                         "non-constant perfect coloring has b, c >= 1"
                         % (b, c, n))
    if (b + c) % 2:
        raise Infeasible("b + c must be even (b=%d, c=%d)" % (b, c))
    if (c << n) % (b + c):
        raise Infeasible("no integer |S| satisfies b|S| = c(2^n - |S|) "
                         "for b=%d c=%d n=%d" % (b, c, n))
    return (c << n) // (b + c)


DEFAULT_BUDGET = 10 ** 7  # nodes; also the CLI's --budget default


def backtrack_search(n: int, target: ParameterMatrix,
                     budget: int = DEFAULT_BUDGET,
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
    recursion.  Besides the colors it keeps two 2^n-entry room lists:
    room1[u] (room0[u]) is how many more in-S (out-of-S) neighbors u may
    still take, up to max(need) (n - min(need)) while u is undecided and
    shrunk to its color's need once it is colored.  Coloring d takes one
    unit from the room of d's color at each neighbor; a room below zero is
    exactly a requirement that can no longer be met.  Prunes per rule and
    the deepest accepted node are counted on prune and retreat paths only.
    """
    _check_dimension(n)
    if max_results is not None and max_results < 1:
        raise ValueError("max_results must be >= 1, got %r" % (max_results,))
    if budget < 0:
        raise ValueError("budget must be >= 0, got %r" % (budget,))
    s_target = _check_feasible(n, target)
    size = 1 << n
    need = (target.c, n - target.b)  # required in-S neighbors, by color
    lo_need, hi_need = min(need), max(need)
    # what coloring d with each color takes from d's own two rooms
    drop1 = (hi_need - need[0], hi_need - need[1])
    drop0 = (need[0] - lo_need, need[1] - lo_need)
    bits = [1 << k for k in range(n)]

    color = bytearray(size)  # meaningful below the cursor only
    room0 = [n - lo_need] * size
    room1 = [hi_need] * size
    rooms = (room0, room1)
    found: list[VertexSet] = []
    nodes = in_s = max_depth = 0
    balance = own = neighbour = 0
    stop = "complete"
    d, col = 0, 1
    while True:
        if col == 1 and in_s >= s_target:
            balance += 1
            col = 0
        if col == 0 and in_s + size - d - 1 < s_target:
            balance += 1
            col = -1
        if col >= 0:
            nodes += 1
            if nodes > budget:
                stop = "budget"
                break
            own1 = room1[d] - drop1[col]
            own0 = room0[d] - drop0[col]
            if own1 < 0 or own0 < 0:
                own += 1
                col -= 1
                continue
            room = rooms[col]
            for bit in bits:
                u = d ^ bit
                left = room[u] - 1
                room[u] = left
                if left < 0:
                    break
            if left < 0:
                # give back the room taken so far, from this neighbor down
                neighbour += 1
                while bit:
                    room[d ^ bit] += 1
                    bit >>= 1
                col -= 1
                continue
            color[d] = col
            in_s += col
            room1[d] = own1
            room0[d] = own0
            if d + 1 < size:
                d += 1
                col = 1
                continue
            S = VertexSet(n, _pack(np.frombuffer(color, dtype=np.uint8)))
            verdict = check_perfect(S)
            assert verdict.is_perfect and \
                (verdict.matrix.b, verdict.matrix.c) == (target.b, target.c)
            found.append(S)
            max_depth = size
            if max_results is not None and len(found) >= max_results:
                stop = "max_results"
                break
        elif d == 0:
            break
        else:
            if d > max_depth:
                max_depth = d
            d -= 1
        # retract the color of d and go on to the next one
        col = color[d]
        in_s -= col
        room = rooms[col]
        for bit in bits:
            room[d ^ bit] += 1
        room1[d] += drop1[col]
        room0[d] += drop0[col]
        col -= 1
    max_depth = max(max_depth, d)
    sets = _dedupe_canonical(found) if canonical else found
    return SearchResult(n, target, tuple(sets), stop_reason=stop, nodes=nodes,
                        balance_prunes=balance, own_prunes=own,
                        neighbour_prunes=neighbour, max_depth=max_depth)
