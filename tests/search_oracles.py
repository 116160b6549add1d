"""Reference implementations that the search module's fast paths are tested
against: the two-counter backtracking loop that the room-counter kernel
replaced, and the O(2^n |S|) canonical_mask loop that refinement replaced."""
from boolcube.cube_core import _pack

import numpy as np


def reference_backtrack(n, b, c, s_target, budget, max_results):
    """The two-counter search loop: per vertex, the decided neighbors and the
    in-S neighbors, with every neighbor's requirement tested from them.

    Returns (nodes, stop_reason, found masks in search order,
    (balance, own, neighbour) prune counts, max_depth), where max_depth is
    the most vertices colored at once by an accepted node."""
    size = 1 << n
    need = (c, n - b)
    lo_need, hi_need = min(need), max(need)
    bits = [1 << k for k in range(n)]
    color = bytearray(size)
    cnt_in = [0] * size
    decided = [0] * size
    found = []
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
            color[d] = col
            in_s += col
            cs = cnt_in[d]
            ok = cs <= need[col] <= cs + n - decided[d]
            if not ok:
                own += 1
            for bit in bits:
                u = d ^ bit
                cs = cnt_in[u] = cnt_in[u] + col
                dec = decided[u] = decided[u] + 1
                if ok:
                    if u < d:
                        ok = cs <= need[color[u]] <= cs + n - dec
                    else:
                        ok = cs <= hi_need and cs + n - dec >= lo_need
                    if not ok:
                        neighbour += 1
            if ok:
                max_depth = max(max_depth, d + 1)
                if d + 1 < size:
                    d += 1
                    col = 1
                    continue
                found.append(_pack(np.frombuffer(color, dtype=np.uint8)))
                if max_results is not None and len(found) >= max_results:
                    stop = "max_results"
                    break
        elif d == 0:
            break
        else:
            d -= 1
        col = color[d]
        in_s -= col
        for bit in bits:
            u = d ^ bit
            cnt_in[u] -= col
            decided[u] -= 1
        col -= 1
    return nodes, stop, found, (balance, own, neighbour), max_depth


def reference_canonical_mask(S):
    """Lexicographically smallest mask over all XOR-translations, one
    translation and one member at a time."""
    best = S.mask
    members = S.member_indices()
    for t in range(1 << S.n):
        m = 0
        for i in members:
            m |= 1 << (i ^ t)
        if m < best:
            best = m
    return best
