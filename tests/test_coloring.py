import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from boolcube import (ParameterMatrix, VertexSet, affine_coloring,
                      check_perfect, complement, cor_from_matrix, cor_order,
                      full_set, is_perfect_code, make_set, spectral_support,
                      stats)
from boolcube.coloring import _all_subsets, _neighbor_counts
from boolcube.search import enumerate_perfect
from boolcube.theorem import sweep
from boolcube.cube_core import index_to_vertex

from conftest import membership, random_set


def test_check_perfect_parity(parity12_e3):
    v = check_perfect(parity12_e3)
    assert v.is_perfect
    assert (v.matrix.b, v.matrix.c) == (2, 2)
    assert v.matrix.rows == ((1, 2), (2, 1))


def test_check_perfect_hamming(hamming7):
    v = check_perfect(hamming7)
    assert v.is_perfect
    assert (v.matrix.b, v.matrix.c) == (7, 1)
    assert v.matrix.rows == ((0, 7), (1, 6))


def test_check_perfect_witness():
    v = check_perfect(make_set(3, ["000"]))
    assert not v.is_perfect and v.matrix is None
    # smallest-index vertex disagreeing with its color's reference count:
    # 001 sees one S-neighbor, 011 sees none
    assert v.witness == ("011", 0)


def _naive_counts(S: VertexSet) -> tuple:
    """Membership and in-S neighbor counts from u ^ 2^k, one bit at a time."""
    u = np.arange(1 << S.n)
    arr = membership(S).astype(np.int64)
    return arr, sum(arr[u ^ (1 << k)] for k in range(S.n))


@pytest.mark.parametrize("n", range(1, 21))
def test_neighbor_counts_match_naive(n):
    S = random_set(random.Random(n), n)
    arr, cnt = _neighbor_counts(S)
    naive_arr, naive_cnt = _naive_counts(S)
    assert arr.dtype == cnt.dtype == np.uint8
    assert np.array_equal(arr, naive_arr) and np.array_equal(cnt, naive_cnt)


@pytest.mark.parametrize("n", range(17, 21))
def test_check_perfect_witness_large(n):
    rng = random.Random(n)
    v = format(rng.randrange(1, 1 << n), "0%db" % n)
    flipped = affine_coloring(n, v).mask ^ (1 << rng.randrange(1 << n))
    for S in (VertexSet(n, flipped), random_set(rng, n)):
        arr, cnt = _naive_counts(S)
        ref = np.where(arr == 1, cnt[np.argmax(arr)], cnt[np.argmin(arr)])
        w = int(np.flatnonzero(cnt != ref)[0])
        assert check_perfect(S).witness == (index_to_vertex(w, n), int(cnt[w]))


def test_check_perfect_rejects_constant():
    with pytest.raises(ValueError):
        check_perfect(make_set(3, []))
    with pytest.raises(ValueError):
        check_perfect(full_set(3))


def test_cor_from_matrix():
    assert cor_from_matrix(ParameterMatrix(7, 7, 1)) == 3
    assert cor_from_matrix(ParameterMatrix(3, 2, 2)) == 1
    assert cor_from_matrix(ParameterMatrix(4, 1, 1)) == 0
    with pytest.raises(ValueError):
        cor_from_matrix(ParameterMatrix(3, 1, 2))


def test_spectral_support_examples(hamming7, parity12_e3):
    assert spectral_support(hamming7) == {0, 4}
    assert spectral_support(parity12_e3) == {0, 2}
    assert spectral_support(make_set(3, ["000"])) == {0, 1, 2, 3}


def test_is_perfect_code(hamming7):
    assert is_perfect_code(hamming7)
    assert not is_perfect_code(make_set(3, ["000", "001", "010", "011"]))
    rng = random.Random(3)
    for _ in range(10):
        assert not is_perfect_code(random_set(rng, 6))  # n != 2^m - 1


def test_characterization_agreement_exhaustive():
    # direct scan iff spectral support is {0} union at most one weight
    for n in range(1, 4):
        for mask in range(1, (1 << (1 << n)) - 1):
            S = VertexSet(n, mask)
            assert check_perfect(S).is_perfect == \
                (len(spectral_support(S)) <= 2)


def test_characterization_agreement_random_n4():
    rng = random.Random(5)
    for _ in range(300):
        S = random_set(rng, 4)
        assert check_perfect(S).is_perfect == (len(spectral_support(S)) <= 2)


def test_matrix_cor_matches_spectral_cor():
    for n in range(1, 4):
        for mask in range(1, (1 << (1 << n)) - 1):
            S = VertexSet(n, mask)
            v = check_perfect(S)
            if v.is_perfect:
                assert cor_from_matrix(v.matrix) == cor_order(S)


def test_perfect_implies_edge_balance():
    for n in range(1, 4):
        for mask in range(1, (1 << (1 << n)) - 1):
            S = VertexSet(n, mask)
            v = check_perfect(S)
            if v.is_perfect:
                st = stats(S)
                assert st.nei == n - v.matrix.b
                assert st.density == Fraction(v.matrix.c,
                                              v.matrix.b + v.matrix.c)
                assert v.matrix.b * S.size == \
                    v.matrix.c * ((1 << n) - S.size)


def _permute(S: VertexSet, perm) -> VertexSet:
    return make_set(S.n, ["".join(m[p] for p in perm) for m in S.members()])


def test_closure_under_symmetries(hamming7, parity12_e3):
    rng = random.Random(7)
    for S in (hamming7, parity12_e3):
        ref = check_perfect(S).matrix
        t = index_to_vertex(rng.getrandbits(S.n), S.n)
        assert check_perfect(S.translate(t)).matrix == ref
        perm = list(range(S.n))
        rng.shuffle(perm)
        got = check_perfect(_permute(S, perm)).matrix
        assert (got.b, got.c) == (ref.b, ref.c)


def test_complement_duality():
    for n in range(1, 4):
        for mask in range(1, (1 << (1 << n)) - 1):
            S = VertexSet(n, mask)
            v = check_perfect(S)
            w = check_perfect(complement(S))
            assert v.is_perfect == w.is_perfect
            if v.is_perfect:
                assert (w.matrix.b, w.matrix.c) == (v.matrix.c, v.matrix.b)


def _check_engine_against_per_set_routes(n, masks):
    size, n1, perfect, b, c, cor, n1_spec = _all_subsets(n)
    for mask in masks:
        S = VertexSet(n, mask)
        assert size[mask] == S.size
        if S.size == 0:
            assert n1[mask] == n1_spec[mask] == 0 and not perfect[mask]
            continue
        assert n1[mask] == stats(S).neighbor_sum - S.size
        assert n1_spec[mask] == n1[mask]
        if S.size == 1 << n:
            assert not perfect[mask]
            continue
        v = check_perfect(S)
        assert perfect[mask] == v.is_perfect
        if v.is_perfect:
            assert (b[mask], c[mask]) == (v.matrix.b, v.matrix.c)
        assert cor[mask] == cor_order(S)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_engine_matches_per_set_routes_on_every_mask(n):
    _check_engine_against_per_set_routes(n, range(1 << (1 << n)))


def test_engine_matches_per_set_routes_n4():
    perfect = _all_subsets(4)[2]
    every_perfect = np.flatnonzero(perfect).tolist()
    assert len(every_perfect) == 86
    sample = random.Random(4).sample(range(1 << 16), 1000)
    _check_engine_against_per_set_routes(4, every_perfect + sample
                                         + [0, (1 << 16) - 1])


def test_engine_is_built_once_per_n():
    _all_subsets.cache_clear()
    sweep(4)
    enumerate_perfect(4)
    sweep(4)
    info = _all_subsets.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_engine_vectors_are_read_only():
    for v in _all_subsets(2):
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1
