"""Boolean n-cube fundamentals: vertex indexing, bitset sets, and the basic
density / neighbor-count statistics."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

N_MAX = 24  # the one cap on cube dimension, for storage and analysis alike


def vertex_index(v: str) -> int:
    """Index of a vertex string; coordinate 1 is the most significant bit."""
    return int(v, 2)


def index_to_vertex(i: int, n: int) -> str:
    return format(i, "0%db" % n)


def _check_vertex(v: str, n: int) -> None:
    if not isinstance(v, str) or len(v) != n or any(ch not in "01" for ch in v):
        raise ValueError("malformed vertex %r for dimension %d" % (v, n))


def _check_dimension(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise ValueError("dimension %r out of range [1, %d]" % (n, N_MAX))


@dataclass(frozen=True)
class VertexSet:
    """A subset S of E^n stored as a 2^n-bit membership mask.

    Bit i of `mask` is set iff the vertex with index i belongs to S.
    Immutable; safe to share across workers.
    """
    n: int
    mask: int

    def __post_init__(self):
        _check_dimension(self.n)
        if self.mask < 0 or self.mask.bit_length() > 1 << self.n:
            raise ValueError("mask does not fit dimension %d" % self.n)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> list[str]:
        return [index_to_vertex(i, self.n) for i in self.member_indices()]

    def member_indices(self) -> list[int]:
        """Indices of the members, ascending."""
        return np.flatnonzero(_membership_array(self)).tolist()

    def translate(self, t: str) -> "VertexSet":
        """XOR-translate every element by the vertex t."""
        _check_vertex(t, self.n)
        idx = np.arange(1 << self.n) ^ vertex_index(t)
        return VertexSet(self.n, _pack(_membership_array(self)[idx]))


def _membership_array(S: VertexSet) -> np.ndarray:
    """uint8 0/1 table of S by vertex index (the mask unpacked)."""
    size = 1 << S.n
    raw = S.mask.to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little", count=size)


def _pack(member: np.ndarray) -> int:
    """The mask with bit i set iff member[i] is nonzero: the inverse of
    `_membership_array`."""
    return int.from_bytes(np.packbits(member, bitorder="little").tobytes(),
                          "little")


@dataclass(frozen=True)
class CubeStats:
    size: int
    density: Fraction
    neighbor_sum: int
    nei: Fraction


def make_set(n: int, vertices) -> VertexSet:
    """S from an iterable of vertex strings; duplicates collapse.

    A valid list is read in one pass of numpy work: the strings are joined
    with a ',' after each, and each row of n + 1 bytes must start with n
    binary digits (its last byte is then one of the |S| commas).  Anything
    else (a non-str element, a wrong length, a non-binary or non-ASCII
    character) takes the per-vertex loop, which raises for the first bad
    vertex.
    """
    _check_dimension(n)
    vs = vertices if isinstance(vertices, list) else list(vertices)
    try:
        raw = (",".join(vs) + ",").encode("ascii")
    except (TypeError, UnicodeEncodeError):
        raw = b""
    if vs and len(raw) == len(vs) * (n + 1):
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, n + 1)
        digits = rows[:, :n] - 48
        if (digits <= 1).all():
            member = np.zeros(1 << n, dtype=np.uint8)
            member[digits @ (1 << np.arange(n - 1, -1, -1))] = 1
            return VertexSet(n, _pack(member))
    mask = 0
    for v in vs:
        _check_vertex(v, n)
        mask |= 1 << vertex_index(v)
    return VertexSet(n, mask)


def full_set(n: int) -> VertexSet:
    _check_dimension(n)
    return VertexSet(n, (1 << (1 << n)) - 1)


def _low_bit_pattern(n: int, k: int) -> int:
    """Bitmask over 2^n positions selecting indices whose bit k is 0."""
    p = (1 << (1 << k)) - 1
    span = 1 << (k + 1)
    total = 1 << n
    while span < total:
        p |= p << span
        span <<= 1
    return p


def distance_one_pairs(S: VertexSet) -> int:
    """N_1: ordered pairs of S-elements at Hamming distance 1."""
    pairs = 0
    for k in range(S.n):
        p = _low_bit_pattern(S.n, k)
        pairs += (S.mask & (S.mask >> (1 << k)) & p).bit_count()
    return 2 * pairs


def stats(S: VertexSet) -> CubeStats:
    """From big-int shifts of the mask; `theorem.verify` takes N_1 from the
    dual distribution instead, and this stays as the cross-check route."""
    size = S.size
    if size == 0:
        raise ValueError("stats undefined for the empty set")
    n1 = distance_one_pairs(S)
    return CubeStats(size=size, density=Fraction(size, 1 << S.n),
                     neighbor_sum=size + n1, nei=Fraction(n1, size))


def complement(S: VertexSet) -> VertexSet:
    return VertexSet(S.n, S.mask ^ ((1 << (1 << S.n)) - 1))
