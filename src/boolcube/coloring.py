"""Perfect 2-coloring detection and parameter extraction.

Color 1 is membership in S.  A perfect coloring is summarized by the matrix

    ((n-b, b), (c, n-c))

where b is the number of out-of-S neighbors of every S-vertex and c is the
number of in-S neighbors of every non-S vertex (first row = the S color).
The cross-edge balance is b*|S| = c*(2^n - |S|), hence rho(S) = c/(b+c);
a perfect code has (b, c) = (n, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .cube_core import VertexSet, _membership_array, index_to_vertex
from .macwilliams import krawtchouk
from .spectral import _butterfly


@dataclass(frozen=True)
class ParameterMatrix:
    n: int
    b: int
    c: int

    @property
    def rows(self) -> tuple:
        return ((self.n - self.b, self.b), (self.c, self.n - self.c))


@dataclass(frozen=True)
class ColoringVerdict:
    is_perfect: bool
    matrix: Optional[ParameterMatrix]
    witness: Optional[tuple]  # (vertex string, observed in-S neighbor count)


LOW_BITS = 6     # bits k < 6 pair runs of only 2^k entries
BLOCK_BITS = 16  # a 2^16-entry block (64 KB per uint8 array) fits in cache


def _add_partner(c: np.ndarray, a: np.ndarray) -> None:
    c += a[:, ::-1]


def _neighbor_counts(S: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """(membership array, per-vertex count of in-S neighbors) over E^n, in
    uint8; each bit k adds the membership of u ^ 2^k to the count of u,
    through the (-1, 2, m) views that pair u with u ^ 2^k.

    Bits below BLOCK_BITS run one cache-sized block at a time, and among
    them bits below LOW_BITS run on a transposed copy of the block, where
    bit k pairs runs of 2^k * rows entries instead of 2^k."""
    arr = _membership_array(S)
    cnt = np.zeros_like(arr)
    blk_bits, low = min(S.n, BLOCK_BITS), min(S.n, LOW_BITS)
    rows = 1 << (blk_bits - low)
    for lo in range(0, arr.shape[0], 1 << blk_bits):
        a, c = arr[lo:lo + (1 << blk_bits)], cnt[lo:lo + (1 << blk_bits)]
        at = a.reshape(rows, 1 << low).T.copy()
        ct = np.zeros_like(at)
        for k in range(low):
            _add_partner(ct.reshape(-1, 2, rows << k),
                         at.reshape(-1, 2, rows << k))
        c.reshape(rows, 1 << low)[...] = ct.T
        for k in range(low, blk_bits):
            _add_partner(c.reshape(-1, 2, 1 << k), a.reshape(-1, 2, 1 << k))
    for k in range(blk_bits, S.n):
        _add_partner(cnt.reshape(-1, 2, 1 << k), arr.reshape(-1, 2, 1 << k))
    return arr, cnt


def check_perfect(S: VertexSet) -> ColoringVerdict:
    """Direct per-vertex scan; the ground-truth decider that `construct`,
    both search engines and `is_perfect_code` certify with.

    The witness, when regularity fails, is the smallest-index vertex whose
    in-S neighbor count differs from the count of the smallest-index vertex
    of the same color.
    """
    if S.size == 0 or S.size == (1 << S.n):
        raise ValueError("constant colorings have no parameter matrix")
    arr, cnt = _neighbor_counts(S)
    ref_in = cnt[np.argmax(arr)]
    ref_out = cnt[np.argmin(arr)]
    t = arr * (ref_in ^ ref_out)  # the reference of each vertex's color
    t ^= ref_out
    t ^= cnt  # nonzero exactly at the vertices that break regularity
    if t.any():
        w = int(np.argmax(t != 0))
        return ColoringVerdict(False, None,
                               (index_to_vertex(w, S.n), int(cnt[w])))
    return ColoringVerdict(True, ParameterMatrix(S.n, b=S.n - int(ref_in),
                                                 c=int(ref_out)), None)


ENUMERATE_N_MAX = 4  # _all_subsets holds 2^n x 2^(2^n) tables


def _check_enumerable(n: int) -> None:
    """The one limit of the exhaustive engine (`search --exhaustive`, `sweep`)."""
    if not 1 <= n <= ENUMERATE_N_MAX:
        raise ValueError("exhaustive enumeration: dimension %r out of range "
                         "[1, %d]" % (n, ENUMERATE_N_MAX))


@lru_cache(maxsize=None)
def _all_subsets(n: int) -> tuple[np.ndarray, ...]:
    """The exhaustive engine, once per n: the per-set kernels run on the
    vertex-major table member[u, m] = (m >> u) & 1, whose column m is the
    set with mask m.  Returns read-only vectors indexed by mask: |S|, N_1,
    the perfect verdict, b and c (where perfect), all from the in-S
    neighbour counts; then cor (where non-constant) and N_1 from the spectra
    alone, N_1 2^n = sum_u P_1(wt u) spec[u]^2 (-1 if that is not whole)."""
    _check_enumerable(n)
    size, nmasks = 1 << n, 1 << (1 << n)
    masks = np.arange(nmasks)
    member = (masks >> np.arange(size)[:, None] & 1).astype(np.uint8)
    cnt = np.zeros_like(member)
    spec = member.astype(np.int32)
    for k in range(n):  # bit k of u pairs rows u and u ^ 2^k
        view = (-1, 2, nmasks << k)
        _add_partner(cnt.reshape(view), member.reshape(view))
        _butterfly(spec.reshape(view))
    s = member.sum(axis=0, dtype=np.int64)
    n1 = (cnt * member).sum(axis=0, dtype=np.int64)  # cnt <= n: exact
    # b, c read at the first vertex of each color; perfect iff all agree
    b = n - cnt[member.argmax(axis=0), masks].astype(np.int64)
    c = cnt[member.argmin(axis=0), masks].astype(np.int64)
    perfect = ((s > 0) & (s < size)
               & (cnt == np.where(member, n - b, c)).all(axis=0))
    # the weight of row u, widened: bitwise_count returns uint8
    wt = np.bitwise_count(np.arange(size)).astype(np.int64)[:, None]
    cor = np.where((spec != 0) & (wt > 0), wt, n + 1).min(axis=0) - 1
    p1 = krawtchouk(n)[1]
    acc = np.zeros(nmasks, dtype=np.int32)  # |spec| <= 2^n: exact at n <= 4
    for u in range(size):  # one row at a time: no 2^n x nmasks temporary
        acc += p1[wt[u, 0]] * spec[u] * spec[u]
    n1_spec = np.where(acc % size == 0, acc >> n, -1)
    for v in (s, n1, perfect, b, c, cor, n1_spec):
        v.setflags(write=False)
    return s, n1, perfect, b, c, cor, n1_spec


def cor_from_matrix(m: ParameterMatrix) -> int:
    """cor = (b+c)/2 - 1 for a genuine perfect coloring."""
    bc = m.b + m.c
    if bc < 2 or bc % 2:
        raise ValueError("invalid parameter pair b=%d c=%d" % (m.b, m.c))
    return bc // 2 - 1


def is_perfect_code(S: VertexSet) -> bool:
    if S.size == 0 or S.size == (1 << S.n):
        return False
    v = check_perfect(S)
    return v.is_perfect and v.matrix.b == S.n and v.matrix.c == 1
