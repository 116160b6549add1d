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
from .spectral import _butterfly, _pair_levels, transform, weight_table


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


def _add_partner(c: np.ndarray, a: np.ndarray) -> None:
    c += a[:, ::-1]


def _neighbor_counts(S: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """(membership array, per-vertex count of in-S neighbors) over E^n, in
    uint8; each bit k adds the membership of u ^ 2^k to the count of u."""
    arr = _membership_array(S)
    cnt = np.zeros_like(arr)
    _pair_levels(_add_partner, cnt, arr)
    return arr, cnt


def check_perfect(S: VertexSet) -> ColoringVerdict:
    """Direct per-vertex scan; the ground-truth decider.

    The witness, when regularity fails, is the smallest-index vertex whose
    in-S neighbor count differs from the count of the smallest-index vertex
    of the same color.
    """
    size = S.size
    if size == 0 or size == (1 << S.n):
        raise ValueError("constant colorings have no parameter matrix")
    return _scan(S)[1]


def _scan(S: VertexSet) -> tuple[int, ColoringVerdict]:
    """One neighbour scan of a non-constant S: N_1, the number of ordered
    pairs of S-elements at distance 1, and the `check_perfect` verdict."""
    arr, cnt = _neighbor_counts(S)
    n1 = int((cnt * arr).sum(dtype=np.int64))  # cnt <= n: exact in uint8
    ref_in = cnt[np.argmax(arr)]
    ref_out = cnt[np.argmin(arr)]
    t = arr * (ref_in ^ ref_out)  # the reference of each vertex's color
    t ^= ref_out
    t ^= cnt  # nonzero exactly at the vertices that break regularity
    if t.any():
        w = int(np.argmax(t != 0))
        return n1, ColoringVerdict(False, None,
                                   (index_to_vertex(w, S.n), int(cnt[w])))
    matrix = ParameterMatrix(S.n, b=S.n - int(ref_in), c=int(ref_out))
    return n1, ColoringVerdict(True, matrix, None)


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
    neighbour counts, and cor (where non-constant) from the spectra alone."""
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
    wt = weight_table(n)[:, None]
    cor = np.where((spec != 0) & (wt > 0), wt, n + 1).min(axis=0) - 1
    for v in (s, n1, perfect, b, c, cor):
        v.setflags(write=False)
    return s, n1, perfect, b, c, cor


def cor_from_matrix(m: ParameterMatrix) -> int:
    """cor = (b+c)/2 - 1 for a genuine perfect coloring."""
    bc = m.b + m.c
    if bc < 2 or bc % 2:
        raise ValueError("invalid parameter pair b=%d c=%d" % (m.b, m.c))
    return bc // 2 - 1


def spectral_support(S: VertexSet) -> set[int]:
    """Weights carrying nonzero Walsh coefficients; {0, k} iff S is perfect."""
    if S.size == 0 or S.size == (1 << S.n):
        raise ValueError("spectral support check rejects constant colorings")
    sp = transform(S)
    wt = weight_table(S.n)
    return {int(w) for w in np.unique(wt[sp.coeffs != 0])}


def is_perfect_code(S: VertexSet) -> bool:
    if S.size == 0 or S.size == (1 << S.n):
        return False
    v = check_perfect(S)
    return v.is_perfect and v.matrix.b == S.n and v.matrix.c == 1
