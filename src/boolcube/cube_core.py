"""Boolean n-cube fundamentals: vertex indexing and subsets of E^n as
bitset masks, with their membership table and complement."""
from __future__ import annotations

from dataclasses import dataclass

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


# The one byte layout of a mask: bit i of byte j is vertex 8j + i, and row
# b of _BYTE_BITS holds the 8 bits of byte b.
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


def _mask_bytes(S: VertexSet) -> np.ndarray:
    """The mask's little-endian bytes as uint8, at least one (n < 3)."""
    return np.frombuffer(S.mask.to_bytes(max(1, (1 << S.n) >> 3), "little"),
                         np.uint8)


def _membership_array(S: VertexSet) -> np.ndarray:
    """uint8 0/1 table of S by vertex index (the mask unpacked)."""
    return np.unpackbits(_mask_bytes(S), bitorder="little", count=1 << S.n)


def _pack(member: np.ndarray) -> int:
    """The mask with bit i set iff member[i] is nonzero: the inverse of
    `_membership_array`."""
    return int.from_bytes(np.packbits(member, bitorder="little").tobytes(),
                          "little")


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


def complement(S: VertexSet) -> VertexSet:
    return VertexSet(S.n, S.mask ^ ((1 << (1 << S.n)) - 1))
