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
    int32 (see `_STAGES`).  Each stage runs on the table rotated so that its
    bits lead the position; the rotations add up to n, so `coeffs` is in
    natural order.  A square does not fit (a_hat(0)^2 = |S|^2), so callers
    widen to int64 before squaring, as `_dual_sums` does.
    """
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)


def _butterfly(v: np.ndarray) -> None:
    """(x, y) -> (x + y, x - y) on the pairs of a view whose axis 1 has
    length 2."""
    x, y = v[:, 0], v[:, 1]
    x += y
    y *= -2
    y += x


# (dtype, levels) of the butterfly's stages, each clipped to the n levels
# of the table.  After k levels a 0/1 table holds values in
# [-2^(k-1), 2^k], and level k reaches 2^(k+1) in flight (x + y, and -2y);
# so levels 0-5 fit int8, levels 6-13 int16, and levels 14 and up int32
# (|a_hat| <= 2^n, exact to n = 30).  Each stage runs on the table rotated
# so that its levels are the top bits of the position (`_fwht_inplace`).
_STAGES = ((np.int8, 6), (np.int16, 8), (np.int32, 64))

TILE_BITS = 8    # a rotation copies tiles of 2^16 entries, at most 2^8 wide
GROUP_BITS = 21  # levels run on row groups of at most 2^21 bytes (2 MB, L2)


def _rotate(a: np.ndarray, g: int, dtype) -> np.ndarray:
    """A copy of `a` (length 2^n) in `dtype`, in which the entry at position
    p moves to p rotated right by g bits: the (2^(n-g), 2^g) matrix
    transposed and widened in one pass, one tile of about 2^(2 TILE_BITS)
    entries at a time."""
    src = a.reshape(-1, 1 << g)
    out = np.empty(src.shape[::-1], dtype)
    step = 1 << max(TILE_BITS, 2 * TILE_BITS - g)
    for r0 in range(0, src.shape[0], step):
        for c0 in range(0, src.shape[1], 1 << TILE_BITS):
            out[c0:c0 + (1 << TILE_BITS), r0:r0 + step] = \
                src[r0:r0 + step, c0:c0 + (1 << TILE_BITS)].T
    return out.reshape(-1)


def _rotated_membership(S: VertexSet) -> np.ndarray:
    """The int8 0/1 table of S rotated for the first stage: vertex u at
    position u rotated right by g = min(n, 6) bits (the identity at n <= 6).

    Read straight from the mask bytes: byte j of row i of their
    (2^(n-g), 2^(g-3)) matrix holds the vertices 2^g i + 8 j + b, b = 0..7,
    so the transposed bytes shifted right by b and masked are the rows
    8 j + b of the rotated (2^g, 2^(n-g)) table (one broadcast shift)."""
    n, g = S.n, min(S.n, _STAGES[0][1])
    if g == n:
        return _membership_array(S).view(np.int8)
    raw = np.frombuffer(S.mask.to_bytes(1 << (n - 3), "little"), np.uint8)
    t = np.ascontiguousarray(raw.reshape(-1, 1 << (g - 3)).T)
    out = np.right_shift(t[:, None], np.arange(8, dtype=np.uint8)[:, None])
    out &= 1
    return out.reshape(-1).view(np.int8)


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a table (length 2^n) given
    rotated for the first stage, as by `_rotated_membership`; returns the
    transform in natural order, in a new array unless n <= 6 and `a` is
    int32 or wider, when it is `a` itself.

    Before each later stage of _STAGES, the table is rotated right by that
    stage's g levels, and widened to its dtype in the same pass if it is
    narrower; the stage's bits are then the top bits of the position, and
    each of its levels pairs whole rows of the (2^g, 2^(n-g)) matrix.  A
    stage larger than 2^GROUP_BITS bytes (int32 from n = 20 on, int16 from
    n = 21, int8 from n = 22) runs its levels in parts: part k0..k1-1 runs
    on each set of rows that differ only in those bits, one set at a time.
    The rotations add up to n, so the last stage ends in natural order.
    A 0/1 table passed as int8 comes back as exact int32; an int64 table
    stays int64."""
    n = a.shape[0].bit_length() - 1
    done = 0
    for dtype, levels in _STAGES:
        g = min(levels, n - done)
        if done and (g or a.itemsize < np.dtype(dtype).itemsize):
            a = _rotate(a, g, np.promote_types(a.dtype, dtype))
        done += g
        m = a.reshape(1 << g, -1)
        w = m.shape[1]
        fit = max(1, GROUP_BITS - (w * a.itemsize).bit_length() + 1)
        parts = -(-g // fit)
        for j in range(parts):
            k0, k1 = g * j // parts, g * (j + 1) // parts
            v = m.reshape(-1, 1 << (k1 - k0), 1 << k0, w)
            for hi in range(v.shape[0]):
                for lo in range(v.shape[2]):
                    rows = v[hi, :, lo]
                    for k in range(k1 - k0):
                        _butterfly(rows.reshape(-1, 2, 1 << k, w))
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
    return Spectrum(S.n, _fwht_inplace(_rotated_membership(S)))


def inverse_transform(sp: Spectrum):
    """Reconstruct the function table from a spectrum.

    Returns a VertexSet when the reconstruction is 0/1-valued, otherwise the
    full table of exact rationals (the non-Boolean case).
    """
    size = 1 << sp.n
    g = min(sp.n, _STAGES[0][1])
    vals = _fwht_inplace(_rotate(sp.coeffs, g, np.int64))  # 2^n * a(u)
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
