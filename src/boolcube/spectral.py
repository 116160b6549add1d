"""Exact integer Walsh/Fourier transform over the cube and the
correlation-immunity order, with a face-counting brute-force cross-check."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cube_core import VertexSet, _membership_array, _pack


@dataclass(frozen=True)
class Spectrum:
    """Walsh coefficients of an indicator function, coeffs[idx(v)] = a_hat(v).

    `transform` gives exact int32 values: |a_hat| <= 2^n, which fits for
    n <= 30.  The butterfly gets there in three stages, each as narrow as
    the values allow: levels 0-5 in int8, 6-13 in int16, 14 and up in
    int32 (see `_STAGES`).  A square does not fit (a_hat(0)^2 = |S|^2), so
    callers widen to int64 before squaring, as `_dual_sums` does.
    """
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)


LOW_BITS = 6     # bits k < 6 pair runs of only 2^k entries
BLOCK_BITS = 16  # a 2^16-entry block (at most 256 KB, in int32) fits in cache


def _pair_levels(op, *arrays, bits: range = range(64)) -> None:
    """Call op on the (-1, 2, m) views pairing u with u ^ 2^k, for every bit
    k in `bits` (clipped to the n bits) of the index of the equal-length 1-D
    arrays (length 2^n); op works in place on the first view and only reads
    the others.

    Bits below BLOCK_BITS run one cache-sized block at a time, and among
    them bits below LOW_BITS run on a transposed copy of the block, where
    bit k pairs runs of 2^k * rows entries instead of 2^k.  The schedule is
    the same for any range: `_fwht_inplace` calls it once per dtype stage
    (bits 0-5 in int8, 6-13 in int16, 14 and up in int32), and the
    neighbour count over all bits."""
    size = arrays[0].shape[0]
    n = size.bit_length() - 1
    blk_bits = min(n, BLOCK_BITS)
    low = min(n, LOW_BITS)
    rows = 1 << (blk_bits - low)
    transposed = range(bits.start, min(bits.stop, low))
    in_block = range(max(bits.start, low), min(bits.stop, blk_bits))
    for lo in range(0, size, 1 << blk_bits):
        blocks = [x[lo:lo + (1 << blk_bits)] for x in arrays]
        if transposed:
            ts = [b.reshape(rows, 1 << low).T.copy() for b in blocks]
            for k in transposed:
                op(*(t.reshape(-1, 2, rows << k) for t in ts))
            blocks[0].reshape(rows, 1 << low)[...] = ts[0].T
        for k in in_block:
            op(*(b.reshape(-1, 2, 1 << k) for b in blocks))
    for k in range(max(bits.start, blk_bits), min(bits.stop, n)):
        op(*(x.reshape(-1, 2, 1 << k) for x in arrays))


def _butterfly(v: np.ndarray) -> None:
    """(x, y) -> (x + y, x - y) on the pairs of a (-1, 2, m) view."""
    x, y = v[:, 0], v[:, 1]
    x += y
    y *= -2
    y += x


# After k levels a 0/1 table holds values in [-2^(k-1), 2^k], and level k
# reaches 2^(k+1) in flight (x + y, and -2y); so levels 0-5 fit int8,
# levels 6-13 int16, and levels 14 and up int32 (|a_hat| <= 2^n, exact to
# n = 30).  _pair_levels clips each range to the table's n bits.
_STAGES = ((np.int8, range(0, 6)), (np.int16, range(6, 14)),
           (np.int32, range(14, 64)))


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of `a` (length 2^n); returns
    the transformed array, which is `a` itself unless it was widened.

    The levels run in the stages of _STAGES, and before each stage `a` is
    widened to the stage's dtype if it is narrower.  A 0/1 table passed as
    int8 stays in [-2^(k-1), 2^k] after k levels, so no stage wraps and it
    comes back as exact int32; an int64 table runs every level in place."""
    for dtype, bits in _STAGES:
        if a.itemsize < np.dtype(dtype).itemsize:
            a = a.astype(dtype)
        _pair_levels(_butterfly, a, bits=bits)
    return a


ROW_BITS = 16  # _dual_sums squares about 2^16 entries (512 KB) at a time


@lru_cache(maxsize=None)
def _index_classes(m: int) -> tuple:
    """0 .. 2^m-1 split by weight: class i holds the intp indices of weight i."""
    wt = np.bitwise_count(np.arange(1 << m))
    return tuple(np.flatnonzero(wt == i) for i in range(m + 1))


def _dual_sums(sp: Spectrum) -> tuple:
    """D_k = sum of a_hat(v)^2 over the v of weight k, exact in int64
    (D_k <= 2^n |S| <= 2^48), with no index of 2^n entries.

    wt(v) = wt(high h bits) + wt(low l bits), h = n // 2: as a (2^h, 2^l)
    matrix, the rows of each high weight i are squared and summed into H[i],
    about 2^ROW_BITS entries at a time; then D_(i + j) sums H[i] over the
    columns of low weight j."""
    h, l = sp.n // 2, sp.n - sp.n // 2
    a = sp.coeffs.reshape(1 << h, 1 << l)
    step = max(1, (1 << ROW_BITS) >> l)
    H = np.zeros((h + 1, 1 << l), dtype=np.int64)
    for i, rows in enumerate(_index_classes(h)):
        for lo in range(0, rows.size, step):
            sq = np.square(a[rows[lo:lo + step]], dtype=np.int64)
            H[i] += sq.sum(axis=0)
    wt = np.arange(h + 1)[:, None] + np.bitwise_count(np.arange(1 << l))
    D = np.zeros(sp.n + 1, dtype=np.int64)
    np.add.at(D, wt, H)
    return tuple(D.tolist())


def transform(S: VertexSet) -> Spectrum:
    """Exact Walsh spectrum of the indicator of S (butterfly, O(n 2^n))."""
    return Spectrum(S.n, _fwht_inplace(_membership_array(S).view(np.int8)))


def inverse_transform(sp: Spectrum):
    """Reconstruct the function table from a spectrum.

    Returns a VertexSet when the reconstruction is 0/1-valued, otherwise the
    full table of exact rationals (the non-Boolean case).
    """
    size = 1 << sp.n
    vals = _fwht_inplace(sp.coeffs.astype(np.int64))  # 2^n * a(u)
    if np.all((vals == 0) | (vals == size)):
        return VertexSet(sp.n, _pack(vals == size))
    return [Fraction(int(v), size) for v in vals]


def cor_order(S: VertexSet) -> int:
    """cor(S): one less than the first weight k >= 1 with D_k > 0 (one has
    it, by Parseval, as S is not constant)."""
    if S.size == 0 or S.size == (1 << S.n):
        raise ValueError("correlation immunity undefined for constant functions")
    duals = _dual_sums(transform(S))
    return next(k - 1 for k in range(1, S.n + 1) if duals[k])


def cor_order_direct(S: VertexSet, t: int) -> bool:
    """Face-counting oracle: does every face fixing t coordinates meet S equally?"""
    if not 0 <= t <= S.n:
        raise ValueError("t=%r out of range [0, %d]" % (t, S.n))
    if t == 0 or S.size == 0:
        return True
    if S.size % (1 << t) != 0:
        return False
    expected = S.size >> t
    members = S.member_indices()
    for bits in combinations(range(S.n), t):
        ymask = 0
        for k in bits:
            ymask |= 1 << k
        counts: dict[int, int] = {}
        for i in members:
            key = i & ymask
            counts[key] = counts.get(key, 0) + 1
        if len(counts) != (1 << t) or any(v != expected for v in counts.values()):
            return False
    return True
