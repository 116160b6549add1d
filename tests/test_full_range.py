"""The analysis above n = 20, up to N_MAX = 24: exact spectra at the right
positions, the equality case on a perfect affine coloring, and a near miss
one vertex away."""
import numpy as np
import pytest

from boolcube import (N_MAX, VertexSet, affine_coloring, check_perfect,
                      inverse_macwilliams, transform, verify)
from boolcube.cube_core import index_to_vertex

from conftest import n1_direct, round_trips


def _sum_squares(c: np.ndarray) -> int:
    """Sum of c^2, widened to int64 one 2^20-entry slice at a time."""
    step = 1 << 20
    return sum(int(np.dot(x, x)) for x in
               (c[i:i + step].astype(np.int64) for i in range(0, c.size, step)))


@pytest.fixture(scope="module", params=[21, N_MAX])
def pair(request):
    """(n, the perfect affine coloring <x, 11111 0..0> = 0, the same set with
    vertex 0 taken out)."""
    n = request.param
    S = affine_coloring(n, "11111" + "0" * (n - 5))
    assert S.mask & 1
    return n, S, VertexSet(n, S.mask ^ 1)


def test_transform_is_exact_int32(pair):
    n, _, T = pair
    c = transform(T).coeffs
    assert c.dtype == np.int32
    assert int(c[0]) == T.size
    assert _sum_squares(c) == (1 << n) * T.size  # Parseval


def _asymmetric_vertex(n: int) -> int:
    """A vertex that no rotation of its n bits maps to itself, so a
    spectrum read at rotated positions cannot pass a check that names it."""
    u = 0xB5A3C1 & ((1 << n) - 1)
    assert all(((u >> k) | (u << (n - k))) & ((1 << n) - 1) != u
               for k in range(1, n))
    return u


@pytest.mark.parametrize("n", [21, N_MAX])
def test_transform_of_one_vertex_is_its_character(n):
    """a_hat(v) = (-1)^wt(u & v) at every v, compared 2^20 entries at a time."""
    u = _asymmetric_vertex(n)
    c = transform(VertexSet(n, 1 << u)).coeffs
    step = 1 << 20
    for lo in range(0, c.size, step):
        v = np.arange(lo, lo + step)
        sign = 1 - 2 * (np.bitwise_count(v & u) & 1).astype(np.int32)
        assert np.array_equal(c[lo:lo + step], sign)


@pytest.mark.parametrize("n", [21, N_MAX])
def test_transform_of_an_affine_set_is_two_peaks(n):
    """{x : <x, v> = 0} has a_hat = 2^(n-1) at 0 and at v, and 0 elsewhere."""
    v = _asymmetric_vertex(n)
    c = transform(affine_coloring(n, index_to_vertex(v, n))).coeffs
    assert np.flatnonzero(c).tolist() == [0, v]
    assert c[0] == c[v] == 1 << (n - 1)


def test_verify_affine_is_the_equality_case(pair):
    n, S, _ = pair
    rep = verify(S)
    assert rep.slack == 0 and rep.is_perfect
    assert (rep.matrix.b, rep.matrix.c) == (5, 5)
    assert rep.cor == 4 and rep.dual.support == (0, 5)
    _check_against_routes(rep, S)


def test_verify_one_vertex_off_is_not_perfect(pair):
    n, _, T = pair
    rep = verify(T)
    assert rep.slack > 0 and not rep.is_perfect and rep.matrix is None
    assert not rep.complemented
    assert check_perfect(T).witness is not None
    _check_against_routes(rep, T)


def _check_against_routes(rep, S):
    """nei against the counted N_1, and N recovered exactly from D."""
    assert rep.nei * S.size == n1_direct(S)
    dist = inverse_macwilliams(rep.dual)
    assert dist.counts[0] == S.size
    assert dist.counts[1] == rep.nei * rep.size  # N_1
    assert sum(dist.counts) == S.size ** 2


def test_inverse_transform_round_trip_n21():
    rng = np.random.default_rng(21)
    a = rng.integers(0, 2, 1 << 21, dtype=np.uint8)
    S = VertexSet(21, int.from_bytes(np.packbits(a, bitorder="little"),
                                     "little"))
    assert round_trips(transform(S), S)
