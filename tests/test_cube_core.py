import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from boolcube import VertexSet, complement, make_set
from boolcube.cube_core import index_to_vertex, vertex_index

from conftest import n1_direct, random_set


def test_make_set_basic():
    S = make_set(3, ["000", "001", "110", "111"])
    assert S.size == 4
    assert "110" in S.members() and "010" not in S.members()


def test_make_set_empty():
    assert make_set(3, []).size == 0


def test_make_set_collapses_duplicates():
    assert make_set(2, ["00", "00", "11"]).size == 2


def test_make_set_rejects_bad_input():
    with pytest.raises(ValueError):
        make_set(0, [])
    with pytest.raises(ValueError):
        make_set(25, [])
    with pytest.raises(ValueError):
        make_set(3, ["0102"])
    with pytest.raises(ValueError):
        make_set(3, ["01"])


def _make_set_loop(n, vertices) -> int:
    """The per-vertex reading of a vertex list, kept as the oracle of
    make_set: the mask, or the ValueError naming the first bad vertex."""
    mask = 0
    for v in vertices:
        if not isinstance(v, str) or len(v) != n or any(ch not in "01" for ch in v):
            raise ValueError("malformed vertex %r for dimension %d" % (v, n))
        mask |= 1 << int(v, 2)
    return mask


@st.composite
def vertex_lists(draw):
    """Valid lists at n <= 12, duplicates included."""
    n = draw(st.integers(1, 12))
    idx = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=300))
    return n, [index_to_vertex(i, n) for i in idx + idx[:len(idx) // 3]]


@settings(max_examples=150, deadline=None, database=None)
@given(vertex_lists())
def test_make_set_matches_per_vertex_loop(case):
    n, vs = case
    assert make_set(n, vs) == VertexSet(n, _make_set_loop(n, vs))


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 4),
       st.lists(st.text(alphabet="012,x", min_size=0, max_size=6), max_size=6))
@example(3, ["011", "01,"])
@example(3, ["011,", "01"])
@example(3, ["0,1", "011"])
@example(3, ["01", "0111"])
def test_make_set_matches_the_loop_on_near_miss_strings(n, vs):
    # commas and wrong lengths that may still add up to |S| * (n + 1) bytes
    try:
        expected = VertexSet(n, _make_set_loop(n, vs))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            make_set(n, vs)
        assert str(got.value) == str(exc)
    else:
        assert make_set(n, vs) == expected


def test_make_set_accepts_any_iterable():
    vs = ["0110", "1111", "0000", "0110"]
    expected = VertexSet(4, _make_set_loop(4, vs))
    assert make_set(4, (v for v in vs)) == expected
    assert make_set(4, set(vs)) == expected
    assert make_set(4, tuple(vs)) == expected
    assert make_set(4, iter([])) == make_set(4, []) == VertexSet(4, 0)


def test_make_set_n24_few_vertices():
    vs = ["0" * 24, "1" * 24, "10" * 12, "000000000000000000000001"]
    S = make_set(24, vs)
    assert S == VertexSet(24, _make_set_loop(24, vs))
    assert S.member_indices() == sorted(int(v, 2) for v in vs)


@pytest.mark.parametrize("bad", [None, 5, b"01", "0102", "01", " 01", "0a1",
                                 "021", "0\u06611"])
def test_make_set_reject_message(bad):
    # after a valid vertex and before another bad one: the first is named
    with pytest.raises(ValueError) as exc:
        make_set(3, ["011", bad, "2"])
    assert str(exc.value) == "malformed vertex %r for dimension 3" % (bad,)


def _member_indices_loop(S):
    """The lowest-set-bit loop over the mask, kept as the oracle."""
    m, out = S.mask, []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _translate_loop(S, t):
    ti, mask = vertex_index(t), 0
    for i in _member_indices_loop(S):
        mask |= 1 << (i ^ ti)
    return VertexSet(S.n, mask)


def test_member_indices_and_translate_match_the_loops():
    rng = random.Random(17)
    for n in range(1, 13):
        for _ in range(6):
            S = random_set(rng, n, nonconstant=False)
            idx = _member_indices_loop(S)
            assert S.member_indices() == idx
            assert S.members() == [index_to_vertex(i, n) for i in idx]
            t = index_to_vertex(rng.getrandbits(n), n)
            assert S.translate(t) == _translate_loop(S, t)


def test_member_indices_and_translate_n18():
    rng = random.Random(18)
    mask = 0
    for i in rng.sample(range(1 << 18), 3000):
        mask |= 1 << i
    S = VertexSet(18, mask)
    assert S.member_indices() == _member_indices_loop(S)
    t = index_to_vertex(rng.getrandbits(18), 18)
    assert S.translate(t) == _translate_loop(S, t)


def test_index_round_trip_exhaustive():
    for n in range(1, 11):
        for i in range(1 << n):
            assert vertex_index(index_to_vertex(i, n)) == i


def test_index_convention_is_big_endian():
    # coordinate 1 is the most significant bit
    assert vertex_index("100") == 4
    assert vertex_index("001") == 1


def test_stats_hamming(hamming7):
    assert n1_direct(hamming7) == 0  # min distance 3: no distance-1 pairs
    assert Fraction(hamming7.size, 1 << 7) == Fraction(1, 8)


def test_stats_parity(parity12_e3):
    assert n1_direct(parity12_e3) == parity12_e3.size  # nei = 1
    assert Fraction(parity12_e3.size, 1 << 3) == Fraction(1, 2)


def test_stats_singleton():
    assert n1_direct(make_set(3, ["000"])) == 0


def test_stats_empty_rejected():
    with pytest.raises(ValueError):
        n1_direct(make_set(3, []))


def test_neighbor_sum_matches_pair_scan():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        S = random_set(rng, n)
        members = S.member_indices()
        n1 = sum((u ^ v).bit_count() == 1 for u in members for v in members)
        assert n1_direct(S) == n1


def test_nei_translation_invariant():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 8)
        S = random_set(rng, n)
        t = index_to_vertex(rng.getrandbits(n), n)
        T = S.translate(t)
        assert n1_direct(S) == n1_direct(T) and S.size == T.size


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 24])
def test_vertex_set_mask_bounds(n):
    assert VertexSet(n, (1 << (1 << n)) - 1).size == 1 << n
    for bad in (1 << (1 << n), -1):
        with pytest.raises(ValueError, match="mask does not fit dimension"):
            VertexSet(n, bad)


def test_complement():
    assert complement(make_set(3, [])).size == 8
    S = make_set(3, ["010", "111"])
    assert complement(complement(S)) == S
    half = make_set(2, ["00", "01"])
    assert complement(half) == make_set(2, ["10", "11"])
