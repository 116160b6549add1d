import random

import numpy as np
import pytest

from boolcube import VertexSet, distance_distribution, make_set, transform

# Codewords of the kernel of the parity-check matrix with columns 1..7,
# computed once by the defining syndrome condition and frozen.
HAMMING7_WORDS = [
    "0000000", "0001111", "0010110", "0011001",
    "0100101", "0101010", "0110011", "0111100",
    "1000011", "1001100", "1010101", "1011010",
    "1100110", "1101001", "1110000", "1111111",
]

# {x in E^3 : x1 xor x2 = 0}
PARITY12_E3 = ["000", "001", "110", "111"]


@pytest.fixture
def hamming7() -> VertexSet:
    return make_set(7, HAMMING7_WORDS)


@pytest.fixture
def parity12_e3() -> VertexSet:
    return make_set(3, PARITY12_E3)


def random_set(rng: random.Random, n: int, nonconstant: bool = True) -> VertexSet:
    while True:
        mask = rng.getrandbits(1 << n)
        if not nonconstant or 0 < mask.bit_count() < (1 << n):
            return VertexSet(n, mask)


def naive_transform(S: VertexSet) -> list:
    """O(4^n) direct double sum: the independent oracle for the butterfly."""
    size = 1 << S.n
    members = set(S.member_indices())
    out = []
    for v in range(size):
        acc = 0
        for u in members:
            acc += -1 if (u & v).bit_count() % 2 else 1
        out.append(acc)
    return out


def fwht_int64(a: np.ndarray) -> np.ndarray:
    """The plain int64 butterfly on (-1, 2, step) views, one level at a time:
    the test-side reference for the transform, and its inverse up to a
    factor 2^n, as H H = 2^n I."""
    a = a.astype(np.int64)
    step = 1
    while step < a.shape[0]:
        b = a.reshape(-1, 2, step)
        x, y = b[:, 0], b[:, 1]  # views: each level runs in place
        x += y
        y *= -2
        y += x
        step *= 2
    return a


def pairwise_distance_counts(S: VertexSet) -> list:
    """O(|S|^2) ordered-pair scan: the oracle for distance distributions."""
    members = S.member_indices()
    counts = [0] * (S.n + 1)
    for u in members:
        for v in members:
            counts[(u ^ v).bit_count()] += 1
    return counts


def membership(S: VertexSet) -> np.ndarray:
    """0/1 table of S by vertex index, from the little-endian bytes of the mask."""
    raw = S.mask.to_bytes(((1 << S.n) + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little", count=1 << S.n)


def round_trips(sp, S: VertexSet) -> bool:
    """The butterfly of the spectrum sp gives back 2^n times the table of S,
    position by position: the high bits of each entry are S's bit there, and
    its low n bits are 0.  Checked in chunks of 2^16 entries, so that the
    int64 table of the butterfly is the only one held."""
    a, member, low = fwht_int64(sp.coeffs), membership(S), (1 << S.n) - 1
    chunks = ((a[i:i + (1 << 16)], member[i:i + (1 << 16)])
              for i in range(0, a.shape[0], 1 << 16))
    return all(np.array_equal(x >> S.n, m) and not (x & low).any()
               for x, m in chunks)


def cor_by_definition(S: VertexSet) -> int:
    """cor(S) by its definition, off the spectrum of a non-constant S: one
    less than the least weight of a v != 0 with a_hat(v) != 0."""
    nonzero = np.flatnonzero(transform(S).coeffs[1:]) + 1
    return int(np.bitwise_count(nonzero).min()) - 1


def n1_direct(T: VertexSet) -> int:
    """N_1, the ordered pairs of T at distance 1: the pairwise
    `distance_distribution` up to 4096 members (its O(|T|^2) scan), above
    that one AND of the two halves of each bit's pairs of the membership
    table.  The one test-side reference for nei = N_1/|T|."""
    if T.size <= 1 << 12:
        return distance_distribution(T).counts[1]
    a = membership(T)
    return sum(2 * int(np.count_nonzero(v[:, 0] & v[:, 1]))
               for v in (a.reshape(-1, 2, 1 << k) for k in range(T.n)))
