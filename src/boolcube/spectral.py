"""Exact integer Walsh/Fourier transform over the cube, with a face-counting
brute-force check of correlation immunity."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cube_core import _BYTE_BITS, VertexSet, _mask_bytes


@dataclass(frozen=True)
class Spectrum:
    """Walsh coefficients of an indicator function, coeffs[idx(v)] = a_hat(v).

    `transform` gives exact int32 values: |a_hat| <= 2^n, which fits for
    n <= 30.  A byte table runs levels 0-2, then levels 3-5 run in int8,
    6-13 in int16 and 14 up in int32 (see `_STAGES`).  `coeffs` is the
    transform's whole work buffer, 4 bytes per entry.  A square does not
    fit (a_hat(0)^2 = |S|^2), so callers widen to int64 before squaring,
    as `macwilliams_from_spectrum` does.
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


# Levels 0-2 run inside chunks of 8 entries, on the mask bytes through
# _BYTE_WHT: entry b is the 8-point transform of the bits of b as 8 int8
# values read as one uint64.
_H8 = np.where(np.bitwise_count(np.arange(8)[:, None] & np.arange(8)) & 1,
               -1, 1)
_BYTE_WHT = (_BYTE_BITS @ _H8).astype(np.int8).view(np.uint64).ravel()

# (dtype, levels) of the butterfly's stages from level 3 up, each clipped
# to the levels of the table.  After k levels a 0/1 table holds values in
# [-2^(k-1), 2^k], and level k reaches 2^(k+1) in flight (x + y, and -2y);
# so levels up to 5 fit int8, levels 6-13 int16, and levels 14 and up
# int32 (|a_hat| <= 2^n, exact to n = 30).
_STAGES = ((np.int8, 3), (np.int16, 8), (np.int32, 64))

GROUP_BITS = 21  # levels run on row groups of at most 2^21 bytes (2 MB, L2)
ROW_BITS = 16    # every chunked copy, gather and sum moves 2^16 items a call


def _read_bytes(table: np.ndarray, raw: np.ndarray, out: np.ndarray):
    """`out` = table[raw] for mask bytes `raw`, a vector or a matrix of rows,
    about 2^ROW_BITS bytes at a time (np.take casts each to intp)."""
    step = max(1, (1 << ROW_BITS) // raw[0].size)
    for r in range(0, len(raw), step):
        np.take(table, raw[r:r + step], out=out[r:r + step], mode="clip")
    return out


def _rotate(a: np.ndarray, g: int, out: np.ndarray) -> np.ndarray:
    """`out`, filled with `a` (2^c chunks of 8 int8 or int16 entries, one
    void item each) rotated right by g bits of the chunk index: the
    (2^(c-g), 2^g) chunk matrix transposed, 2^ROW_BITS chunks at a time."""
    item = np.dtype((np.void, 8 * a.itemsize))
    src = a.view(item).reshape(-1, 1 << g)
    dst = out.view(item).reshape(1 << g, -1)
    step = max(1, (1 << ROW_BITS) >> g)
    for r in range(0, src.shape[0], step):
        dst[:, r:r + step] = src[r:r + step].T
    return out


def _widen(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out`, filled with `a`, 2^ROW_BITS entries at a time in ascending
    order.  `out` may start before `a` in one buffer and end where it ends:
    each copy then ends before the unread part of `a` begins, and numpy
    buffers the last, the one copy that overlaps its own source."""
    step = 1 << ROW_BITS
    for r in range(0, out.size, step):
        out[r:r + step] = a[r:r + step]
    return out


def _levels(a: np.ndarray, g: int) -> None:
    """Butterfly levels on the top g bits of the position of `a`: each level
    pairs whole rows of the (2^g, 2^(n-g)) matrix.  Where the table exceeds
    2^GROUP_BITS bytes (int32 from n = 20 on, int16 from n = 21, int8 from
    n = 22), its levels run in parts: part k0..k1-1 runs on each set of
    rows that differ only in those bits, one set at a time."""
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


def _fwht_inplace(x: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a 0/1 table of 2^n >= 8
    entries, given as its packed mask bytes (uint8) in natural order;
    returns exact int32 in natural order.

    Levels 0-2 are done as the mask bytes are gathered through _BYTE_WHT,
    already rotated for the first stage.  Before each later stage the
    chunks are rotated right by its g levels (_rotate) and widened to its
    dtype (_widen), so that its levels pair whole rows (_levels).  The
    rotations add up to n - 3.

    Every step writes into one work buffer, allocated here, at its head or
    its tail by turns, so that the last table lands in the head.  The
    buffer is the int32 result, 4 bytes per entry: the int16 table at its
    tail is widened over it in place."""
    c = x.size.bit_length() - 1  # bits of the chunk index, n - 3
    stages, done = [], 0
    for dtype, levels in _STAGES:
        stages.append((np.dtype(dtype), min(levels, c - done)))
        done += stages[-1][1]
    # the tables written: the first stage's, then for each later stage its
    # rotation and its widening
    writes = 1 + sum(bool(g) + 1 for _, g in stages[1:])
    work = np.empty(4 << (c + 3), np.uint8)

    def table(dtype):
        nonlocal writes
        writes -= 1
        size = dtype.itemsize << (c + 3)
        at = 0 if writes % 2 == 0 else work.size - size
        return work[at:at + size].view(dtype)

    g = stages[0][1]
    a = table(stages[0][0])
    src = x.reshape(-1, 1 << g).T
    _read_bytes(_BYTE_WHT, src, a.view(np.uint64).reshape(src.shape))
    _levels(a, g)
    for dtype, g in stages[1:]:
        if g:
            a = _rotate(a, g, table(a.dtype))
        a = _widen(a, table(dtype))
        _levels(a, g)
    return a


def transform(S: VertexSet) -> Spectrum:
    """Exact Walsh spectrum of the indicator of S (butterfly, O(n 2^n)).
    Below n = 3 the mask is one byte, and the first 2^n entries of its
    8-point transform are the spectrum."""
    return Spectrum(S.n, _fwht_inplace(_mask_bytes(S))[:1 << S.n])


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
