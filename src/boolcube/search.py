"""Constructions of known perfect colorings (affine, Hamming code, half-cube),
each a lift of a perfect coloring of a Cayley graph on E^m, and exhaustive /
backtracking discovery of perfect 2-colorings at small n."""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cube_core import (N_MAX, VertexSet, _check_dimension, _check_vertex,
                        _membership_array, _pack, index_to_vertex,
                        vertex_index)
from .coloring import ParameterMatrix, _all_subsets, check_perfect
from .theorem import _fdf_ok


class Infeasible(ValueError):
    """No perfect coloring has the target (b, c) in this dimension."""


def _lift(gens: list, base: VertexSet) -> VertexSet:
    """phi^{-1}(base) in E^n, n = len(gens), phi(x) = XOR of gens[i - 1] in
    E^m over the coordinates i set in x: a perfect (b, c) coloring of the
    multigraph Cay(E^m; gens) lifts to one of E^n.  pre[s] masks the indices
    that phi maps to s, one index bit p (coordinate n - p) at a time."""
    n = len(gens)
    pre = [1] + [0] * ((1 << base.n) - 1)
    for p in range(n):
        g, w = gens[n - 1 - p], 1 << p
        pre = [pre[s] | pre[s ^ g] << w for s in range(len(pre))]
    return VertexSet(n, sum(pre[s] for s in base.member_indices()))


def hamming_code(m: int) -> VertexSet:
    """Codewords of the kernel of the parity-check matrix whose columns are
    the binary expansions of 1..n, n = 2^m - 1: the lift of {0} in
    Cay(E^m; 1..n) = K_{2^m}."""
    if m < 2:
        raise ValueError("hamming construction needs m >= 2")
    if m > N_MAX.bit_length():  # then 2^m - 1 > N_MAX: bound m before 2^m
        raise ValueError("hamming construction: m=%d gives dimension "
                         "2^m - 1 > %d" % (m, N_MAX))
    n = (1 << m) - 1
    _check_dimension(n)
    return _lift(list(range(1, n + 1)), VertexSet(m, 1))


def affine_coloring(n: int, v: str, eps: int = 0) -> VertexSet:
    """{x : <x, v> = eps}; a perfect coloring with b = c = wt(v): the lift of
    {eps} in Cay(E^1; v_1..v_n)."""
    _check_dimension(n)
    _check_vertex(v, n)
    if vertex_index(v) == 0:
        raise ValueError("affine construction needs a nonzero vector")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    return _lift([int(ch) for ch in v], VertexSet(1, 1 << int(eps)))


def half_cube(n: int, coord: int = 1) -> VertexSet:
    """{x : x_coord = 0}, the affine coloring of e_coord: b = c = 1."""
    _check_dimension(n)
    if not 1 <= coord <= n:
        raise ValueError("coordinate %r out of range" % (coord,))
    return affine_coloring(n, index_to_vertex(1 << (n - coord), n))


def construct(kind: str, **params) -> VertexSet:
    """Call the kind's builder on the params that are not None.  Its
    signature names the kind's parameters (the first other one given is
    rejected), which of them are required, and the defaults of the rest."""
    build = {"hamming": hamming_code, "affine": affine_coloring,
             "half_cube": half_cube}.get(kind)
    if build is None:
        raise ValueError("unknown construction kind %r" % (kind,))
    takes = inspect.signature(build).parameters
    given = {k: v for k, v in params.items() if v is not None}
    for name in given:
        if name not in takes:
            raise ValueError("the %s construction takes no %s" % (kind, name))
    for name, p in takes.items():
        if name not in given and p.default is p.empty:
            raise ValueError("the %s construction needs %s" % (kind, name))
    S = build(**given)
    if not check_perfect(S).is_perfect:  # not an assert: -O keeps it
        raise AssertionError("the %s construction is not perfect" % kind)
    return S


@dataclass(frozen=True)
class SearchResult:
    n: int
    # VertexSets: in increasing mask order from enumerate_perfect, in search
    # order from backtrack_search
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
    # backtrack_search only: 64-vertex blocks whose first way up was
    # recorded, and block entries that replayed one
    blocks_recorded: int = 0
    blocks_replayed: int = 0
    swapped: bool = False  # backtrack_search only: b < c, it searched (c, b)

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


def enumerate_perfect(n: int, target: Optional[ParameterMatrix] = None
                      ) -> SearchResult:
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
        if check_perfect(S).matrix != ParameterMatrix(n, b, c):
            raise AssertionError("engine and scan disagree on mask %d" % mask)
        found.append(S)
    return SearchResult(n, tuple(found), stop_reason="complete")


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
    size, cor = (c << n) // (b + c), (b + c) // 2 - 1
    if not _fdf_ok(n, size, cor):
        raise Infeasible("Fon-Der-Flaass: an unbalanced coloring has "
                         "3(cor+1) <= 2n, but b=%d c=%d gives cor=%d in "
                         "dimension %d" % (b, c, cor, n))
    return size


DEFAULT_BUDGET = 10 ** 7  # nodes; also the CLI's --budget default
BLOCK_BITS = 6  # backtrack_search keeps the rooms of 2^6 vertices in one int
WIDTH = 1 << BLOCK_BITS
ONES = (1 << 16 * WIDTH) // 255  # 1 in each byte lane: (color, vertex)
FULL = 127 * ONES  # rooms are < 128: + FULL sets a lane's top bit iff not 0
# per lane (color * WIDTH + vertex), the lanes of its neighbors in the block
LANE_NEIGHBORS = tuple(tuple(lane ^ 1 << k for k in range(BLOCK_BITS))
                       for lane in range(2 * WIDTH))


def _taken(color: bytearray, d: int) -> int:
    """1 in the lane (color, vertex) of each vertex of the block below d."""
    in_s = int.from_bytes(color[d - WIDTH:d], "little")
    return (ONES >> 8 * WIDTH) - in_s + (in_s << 8 * WIDTH)


def _cross(packed: list, rows: int, taken: int, d: int, step: int,
           flips: list) -> tuple:
    """Cross the boundary at d up (1) or down (-1): store `rows`, move `taken`
    into (out of) the lower block's neighbor blocks, and return the other
    block's rooms and flags (1: a neighbor in another block has no room)."""
    done = (d >> BLOCK_BITS) - 1
    packed[done + (step < 0)] = rows
    new, full, taken = done + (step > 0), -1, step * taken
    for f in flips:
        packed[done ^ f] -= taken
    for f in flips:
        full &= packed[new ^ f] + FULL
    return packed[new], ~full >> 7 & ONES


def backtrack_search(n: int, target: ParameterMatrix,
                     budget: int = DEFAULT_BUDGET,
                     max_results: Optional[int] = None) -> SearchResult:
    """Depth-first color assignment in vertex-index order with sound pruning.

    For b < c it searches the complements, the (c, b) colorings, and returns
    the complement of each leaf (`swapped`); the counts describe that search.
    Vertex d gets color 1 (in S) before color 0.  A node is one assignment;
    it is pruned when the cardinality balance can no longer be met, or when
    d or a neighbor d ^ 2^k can no longer reach its color's requirement of
    in-S neighbors (n - b for S-vertices, c for the rest; an undecided
    vertex must still be able to meet one of the two).  Every leaf is
    certified by `check_perfect`.  The search stops after `budget` nodes
    or `max_results` colorings; `stop_reason` says which, or "complete".
    A budget stop reports budget + 1 nodes, the last one not expanded.

    The traversal is one loop over an explicit cursor (depth d, color to
    try next), with the colors so far (2^n bytes) as its stack.  A vertex's
    room for a color is how many more neighbors of that color it can take
    and still meet a requirement (its own, once it is colored).  The rooms
    of a block of 2^BLOCK_BITS vertices are one int, a byte lane per (color,
    vertex).  d's block is open as a list; its neighbors in other blocks are
    checked by one flag, and lose their room when the block is left upward.
    Prunes and the deepest node are counted on prune and retreat paths only.

    The first run up through a block from each entry state (its rooms and
    flags, and the balance margins clipped at the block width) is recorded:
    its colors, exit rooms and what it takes as ints, and the counts it
    added.  A later entry from that state replays it on ints, unless that
    would pass the budget or the block is the last.  A block that fails, a
    budget stop and a resume from above record nothing.  The deepest node
    needs no record: a replayed block's retreats lie below its exit.
    """
    _check_dimension(n)
    if max_results is not None and max_results < 1:
        raise ValueError("max_results must be >= 1, got %r" % (max_results,))
    if budget < 0:
        raise ValueError("budget must be >= 0, got %r" % (budget,))
    s_target = _check_feasible(n, target)
    size = 1 << n
    swap = int(target.b < target.c)  # then search the complements: (c, b)
    s_target = size - s_target if swap else s_target
    # required in-S neighbors, by color
    need = (target.b, n - target.c) if swap else (target.c, n - target.b)
    lo_need, hi_need = min(need), max(need)
    # what coloring d with each color takes from d's own two rooms
    drop1 = (hi_need - need[0], hi_need - need[1])
    drop0 = (need[0] - lo_need, need[1] - lo_need)
    # below 2^BLOCK_BITS vertices, one block, part of it unused
    nbrs = [lanes[:n] for lanes in LANE_NEIGHBORS] if n < BLOCK_BITS \
        else LANE_NEIGHBORS
    flips = [1 << k for k in range(n - BLOCK_BITS)]  # to the neighbor blocks
    packed = [((hi_need << 8 * WIDTH) + n - lo_need) * (ONES >> 8 * WIDTH)
              ] * max(1, size >> BLOCK_BITS)
    rows = list(packed[0].to_bytes(2 * WIDTH, "little"))
    flags = bytes(2 * WIDTH)  # no room starts at 0, as b, c >= 1

    color = bytearray(size)  # meaningful below the cursor only
    found: list[VertexSet] = []
    nodes = in_s = max_depth = 0
    balance = own = neighbour = 0
    stop = "complete"
    d = low = 0
    col = 1
    memo = {}  # block entry state -> its first way up
    rec = None  # the entry being recorded: its key and the counts then
    replayed = 0
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
            own1 = rows[WIDTH + low] - drop1[col]
            own0 = rows[low] - drop0[col]
            if own1 < 0 or own0 < 0:
                own += 1
                col -= 1
                continue
            lane = WIDTH + low if col else low
            left = -flags[lane]  # -1: a neighbor in another block is full
            for u in () if left else nbrs[lane]:
                left = rows[u] - 1
                rows[u] = left
                if left < 0:  # give back what it took, up to u
                    for v in nbrs[lane]:
                        rows[v] += 1
                        if v == u:
                            break
                    break
            if left < 0:
                neighbour += 1
                col -= 1
                continue
            color[d] = col
            in_s += col
            rows[WIDTH + low] = own1
            rows[low] = own0
            if d + 1 < size:
                d += 1
                low = d & (WIDTH - 1)
                col = 1
                if not low:
                    rows = int.from_bytes(bytearray(rows), "little")
                    taken = _taken(color, d)
                    if rec is not None:  # the recorded block's first way up
                        memo[rec[0]] = (bytes(color[d - WIDTH:d]), rows, taken,
                                        in_s - rec[1], nodes - rec[2],
                                        balance - rec[3], own - rec[4],
                                        neighbour - rec[5])
                        rec = None
                    rows, flags = _cross(packed, rows, taken, d, 1, flips)
                    while d + WIDTH < size:
                        key = (rows, flags, min(s_target - in_s, WIDTH),
                               min(in_s + size - d - s_target, WIDTH))
                        hit = memo.get(key)
                        if hit is None:
                            rec = (key, in_s, nodes, balance, own, neighbour)
                            break
                        if nodes + hit[4] > budget:
                            break
                        color[d:d + WIDTH] = hit[0]
                        d += WIDTH
                        in_s, nodes, balance, own, neighbour = (
                            in_s + hit[3], nodes + hit[4], balance + hit[5],
                            own + hit[6], neighbour + hit[7])
                        replayed += 1
                        rows, flags = _cross(packed, hit[1], hit[2], d, 1,
                                             flips)
                    rows = list(rows.to_bytes(2 * WIDTH, "little"))
                    flags = flags.to_bytes(2 * WIDTH, "little")
                continue
            S = VertexSet(n, _pack(np.frombuffer(color, np.uint8) ^ swap))
            if check_perfect(S).matrix != target:
                raise AssertionError("a leaf is not a %r coloring" % (target,))
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
            if not low:
                rows, flags = _cross(packed,
                                     int.from_bytes(bytearray(rows), "little"),
                                     _taken(color, d), d, -1, flips)
                rows = list(rows.to_bytes(2 * WIDTH, "little"))
                flags = flags.to_bytes(2 * WIDTH, "little")
                rec = None  # the recorded block, if any, failed
            d -= 1
            low = d & (WIDTH - 1)
        # retract the color of d and go on to the next one
        col = color[d]
        in_s -= col
        for u in nbrs[WIDTH + low if col else low]:
            rows[u] += 1
        rows[WIDTH + low] += drop1[col]
        rows[low] += drop0[col]
        col -= 1
    max_depth = max(max_depth, d)
    return SearchResult(n, tuple(found), stop_reason=stop, nodes=nodes,
                        balance_prunes=balance, own_prunes=own,
                        neighbour_prunes=neighbour, max_depth=max_depth,
                        blocks_recorded=len(memo), blocks_replayed=replayed,
                        swapped=bool(swap))
