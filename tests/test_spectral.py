import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boolcube import (VertexSet, complement, cor_order, cor_order_direct,
                      inverse_transform, make_set, spectral, transform)
from boolcube.cube_core import _membership_array, index_to_vertex, vertex_index
from boolcube.spectral import _index_classes, _rotate, _rotated_membership

from conftest import membership, naive_transform, random_set


def test_transform_n1():
    sp = transform(make_set(1, ["0"]))
    assert list(sp.coeffs) == [1, 1]


def test_transform_diagonal_pair():
    sp = transform(make_set(2, ["00", "11"]))
    assert list(sp.coeffs) == [2, 0, 0, 2]


def test_transform_parity(parity12_e3):
    sp = transform(parity12_e3)
    expected = [0] * 8
    expected[0] = expected[vertex_index("110")] = 4
    assert list(sp.coeffs) == expected


def test_transform_dc_is_size():
    rng = random.Random(3)
    for _ in range(20):
        S = random_set(rng, rng.randint(1, 9), nonconstant=False)
        assert int(transform(S).coeffs[0]) == S.size


def test_butterfly_matches_naive():
    rng = random.Random(5)
    for n in range(1, 9):
        S = random_set(rng, n, nonconstant=False)
        assert list(transform(S).coeffs) == naive_transform(S)
    # tiny dimensions exhaustively
    for n in (1, 2):
        for mask in range(1 << (1 << n)):
            S = VertexSet(n, mask)
            assert list(transform(S).coeffs) == naive_transform(S)


def _fwht_int64_oracle(a: np.ndarray) -> np.ndarray:
    """The plain int64 butterfly on (-1, 2, step) views, one level at a time."""
    a = a.astype(np.int64)
    step = 1
    while step < a.shape[0]:
        b = a.reshape(-1, 2, step)
        x, y = b[:, 0].copy(), b[:, 1].copy()
        b[:, 0], b[:, 1] = x + y, x - y
        step *= 2
    return a


@pytest.mark.parametrize("n", range(1, 17))
def test_transform_is_int32(n):
    """int32 and read-only at every n, also at n <= 6, where the int16 and
    int32 stages of the butterfly have no levels to run, and at n <= 14,
    where the int32 stage has none."""
    coeffs = transform(random_set(random.Random(n), n)).coeffs
    assert coeffs.dtype == np.int32
    assert not coeffs.flags.writeable
    with pytest.raises(ValueError):
        coeffs[0] = 0


# The full set puts 2^k at index 0 after k levels: n = 7 (128) and n = 15
# (32768) are the first values that an int8 or int16 stage ending one
# level late would wrap; 6, 8, 13, 14 and 16 sit on either side.  At
# n = 2..4 only the first stage runs, at 9..12 the second is partial.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                               15, 16, 17, 18, 19, 20])
def test_blocked_transform_matches_int64_butterfly(n):
    rng = random.Random(n)
    for S in (random_set(rng, n), VertexSet(n, 1 << rng.randrange(1 << n)),
              VertexSet(n, (1 << (1 << n)) - 1)):
        assert np.array_equal(transform(S).coeffs,
                              _fwht_int64_oracle(membership(S)))


# n = 20 runs 16 tiles of 2^16 entries (2 TILE_BITS) for every g, and from
# g = 9 on the tiles split the columns too
@pytest.mark.parametrize("g", range(11))
@pytest.mark.parametrize("rest", [0, 1, 4, None],
                         ids=["n=g", "n=g+1", "n=g+4", "n=20"])
def test_rotate_is_the_widened_transpose(g, rest):
    n = 20 if rest is None else g + rest
    a = np.random.default_rng(100 * n + g).integers(-128, 128, 1 << n,
                                                    dtype=np.int8)
    want = a.reshape(-1, 1 << g).T.ravel()
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        got = _rotate(a, g, dtype)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", range(1, 21))
def test_rotated_membership_is_the_rotated_table(n):
    """The first stage's input, unpacked from the mask bytes, is the table
    rotated right by min(n, 6) bits, also for masks with the top bit set."""
    rng = random.Random(n)
    top = 1 << ((1 << n) - 1)
    for mask in (rng.getrandbits(1 << n) | top, top, 1, top - 1):
        S = VertexSet(n, mask)
        got = _rotated_membership(S)
        assert got.dtype == np.int8
        assert np.array_equal(got, _membership_array(S).reshape(
            -1, 1 << min(n, 6)).T.ravel())


@pytest.mark.parametrize("group_bits", [15, 16, 17])
@pytest.mark.parametrize("n", [14, 17, 18])
def test_row_groups_match_int64_butterfly(monkeypatch, n, group_bits):
    """At GROUP_BITS = 21 the levels of a stage run in groups of rows only
    from n = 20 on (int32; int16 from n = 21, int8 from n = 22); smaller
    values split the stages here, down to one level per group, also in the
    int64 stages of the inverse: at 15, n = 17 runs the int8 and int16
    stages in 2 parts and the int32 stage in 3."""
    monkeypatch.setattr(spectral, "GROUP_BITS", group_bits)
    S = random_set(random.Random(group_bits * n), n)
    assert np.array_equal(transform(S).coeffs,
                          _fwht_int64_oracle(membership(S)))
    assert inverse_transform(transform(S)) == S


@st.composite
def masks_up_to_n12(draw):
    n = draw(st.integers(1, 12))
    return VertexSet(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


@settings(max_examples=200, deadline=None, database=None)
@given(masks_up_to_n12())
def test_staged_transform_matches_int64_butterfly_and_inverts(S):
    sp = transform(S)
    assert np.array_equal(sp.coeffs, _fwht_int64_oracle(membership(S)))
    assert inverse_transform(sp) == S


def test_parseval():
    rng = random.Random(17)
    for n in range(1, 4):
        for mask in range(1 << (1 << n)):
            S = VertexSet(n, mask)
            sp = transform(S)
            assert int((sp.coeffs ** 2).sum()) == (1 << n) * S.size
    for _ in range(30):
        S = random_set(rng, rng.randint(1, 12), nonconstant=False)
        sp = transform(S)
        assert int((sp.coeffs.astype(np.int64) ** 2).sum()) == (1 << S.n) * S.size


def test_round_trip():
    rng = random.Random(19)
    for n in range(1, 4):
        for mask in range(1 << (1 << n)):
            S = VertexSet(n, mask)
            assert inverse_transform(transform(S)) == S
    for _ in range(30):
        S = random_set(rng, rng.randint(1, 12), nonconstant=False)
        assert inverse_transform(transform(S)) == S
    S = random_set(rng, 18)
    assert inverse_transform(transform(S)) == S


def test_inverse_special_spectra():
    from boolcube.spectral import Spectrum
    empty = inverse_transform(Spectrum(3, np.zeros(8, dtype=np.int64)))
    assert empty == VertexSet(3, 0)
    dc = np.zeros(8, dtype=np.int64)
    dc[0] = 8
    assert inverse_transform(Spectrum(3, dc)) == complement(VertexSet(3, 0))


def test_inverse_non_boolean_reconstruction():
    from boolcube.spectral import Spectrum
    sp = Spectrum(2, np.array([1, 0, 0, 0], dtype=np.int64))
    vals = inverse_transform(sp)
    assert vals == [Fraction(1, 4)] * 4


def test_cor_order_hamming(hamming7):
    assert cor_order(hamming7) == 3


def test_cor_order_parity_kernel():
    for n in range(2, 7):
        S = make_set(n, [index_to_vertex(i, n) for i in range(1 << n)
                         if bin(i).count("1") % 2 == 0])
        assert cor_order(S) == n - 1


def test_cor_order_singleton():
    assert cor_order(make_set(3, ["000"])) == 0


def test_cor_order_rejects_constant():
    with pytest.raises(ValueError):
        cor_order(make_set(3, []))
    with pytest.raises(ValueError):
        cor_order(complement(VertexSet(3, 0)))


def test_cor_order_direct_examples(hamming7):
    assert cor_order_direct(hamming7, 3)
    assert not cor_order_direct(hamming7, 4)
    assert cor_order_direct(make_set(2, ["01"]), 0)
    assert not cor_order_direct(make_set(3, ["000"]), 1)


def test_cor_oracle_equivalence_exhaustive():
    for n in range(1, 4):
        for mask in range(1, (1 << (1 << n)) - 1):
            S = VertexSet(n, mask)
            c = cor_order(S)
            for t in range(n + 1):
                assert (c >= t) == cor_order_direct(S, t)


def test_cor_oracle_equivalence_random():
    rng = random.Random(23)
    for _ in range(30):
        S = random_set(rng, rng.randint(5, 8))
        c = cor_order(S)
        for t in range(S.n + 1):
            assert (c >= t) == cor_order_direct(S, t)


def test_translation_covariance():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 8)
        S = random_set(rng, n)
        t = rng.getrandbits(n)
        sp = transform(S)
        sp2 = transform(S.translate(index_to_vertex(t, n)))
        for v in range(1 << n):
            sign = -1 if (t & v).bit_count() % 2 else 1
            assert sp2.coeffs[v] == sign * sp.coeffs[v]
        assert cor_order(S) == cor_order(S.translate(index_to_vertex(t, n)))


def test_transform_of_the_empty_set_n21():
    assert not transform(VertexSet(21, 0)).coeffs.any()


@pytest.mark.parametrize("m", range(1, 13))
def test_weight_table_is_popcount(m):
    # the row classes of the D kernel, m = n // 2 <= 12
    classes = _index_classes(m)
    assert all(c.dtype == np.intp for c in classes)
    assert [c.tolist() for c in classes] == \
        [[i for i in range(1 << m) if bin(i).count("1") == k]
         for k in range(m + 1)]
