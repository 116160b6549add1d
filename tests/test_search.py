import gc
import hashlib
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from boolcube import (Construction, Infeasible, ParameterMatrix, VertexSet,
                      affine_coloring, backtrack_search, check_perfect,
                      construct, cor_from_matrix, cor_order,
                      enumerate_perfect, half_cube, hamming_code, make_set,
                      verify)
from boolcube.cube_core import index_to_vertex
from boolcube.search import _check_feasible, canonical_mask

from conftest import HAMMING7_WORDS
from search_oracles import reference_backtrack, reference_canonical_mask


def _loop_mask(n, member):
    """Reference construction: one membership test per vertex index."""
    mask = 0
    for idx in range(1 << n):
        if member(idx):
            mask |= 1 << idx
    return mask


def _syndrome(idx, n):
    syn = 0
    for p in range(n):
        if idx >> p & 1:
            syn ^= n - p  # bit p from the LSB is coordinate n - p
    return syn


def test_constructions_match_loop_reference():
    for n in range(1, 7):
        for vi in range(1, 1 << n):
            v = index_to_vertex(vi, n)
            for eps in (0, 1):
                assert affine_coloring(n, v, eps).mask == _loop_mask(
                    n, lambda i: (i & vi).bit_count() % 2 == eps)
        for coord in range(1, n + 1):
            bit = 1 << (n - coord)
            assert half_cube(n, coord).mask == _loop_mask(
                n, lambda i: not i & bit)
    for m in (2, 3, 4):
        n = (1 << m) - 1
        assert hamming_code(m).mask == _loop_mask(
            n, lambda i: _syndrome(i, n) == 0)


def test_hamming_construction():
    S = hamming_code(3)
    assert S.n == 7 and S.size == 16
    assert sorted(S.members()) == sorted(HAMMING7_WORDS)
    v = check_perfect(S)
    assert v.matrix.rows == ((0, 7), (1, 6))


def test_hamming_m2():
    S = hamming_code(2)
    assert S.n == 3 and S.size == 2
    assert set(S.members()) == {"000", "111"}


def test_affine_construction():
    S = affine_coloring(3, "110", 0)
    assert set(S.members()) == {"000", "001", "110", "111"}
    v = check_perfect(S)
    assert (v.matrix.b, v.matrix.c) == (2, 2)
    T = affine_coloring(3, "110", 1)
    assert set(T.members()) == {"010", "011", "100", "101"}


def test_affine_parameter_matrix_is_weight():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 6)
        vi = rng.randint(1, (1 << n) - 1)
        v = index_to_vertex(vi, n)
        S = affine_coloring(n, v, rng.randint(0, 1))
        m = check_perfect(S).matrix
        assert m.b == m.c == v.count("1")


def test_half_cube_construction():
    S = half_cube(4, 1)
    assert S.size == 8
    assert all(m[0] == "0" for m in S.members())
    assert check_perfect(S).matrix.rows == ((3, 1), (1, 3))
    S2 = half_cube(3, 2)
    assert all(m[1] == "0" for m in S2.members())


def test_construct_dispatch():
    assert construct(Construction("hamming", m=3)).size == 16
    assert construct(Construction("affine", n=3, v="110")).size == 4
    assert construct(Construction("half_cube", n=4, coord=2)).size == 8
    with pytest.raises(ValueError):
        construct(Construction("nope"))
    with pytest.raises(ValueError):
        construct(Construction("hamming", m=1))
    with pytest.raises(ValueError):
        construct(Construction("affine", n=3, v="000"))
    with pytest.raises(ValueError):
        construct(Construction("half_cube", n=3, coord=5))
    for c, message in [
        (Construction("hamming"), "the hamming construction needs m"),
        (Construction("half_cube"), "the half_cube construction needs n"),
        (Construction("affine", v="110"), "the affine construction needs n"),
        (Construction("affine", n=3), "the affine construction needs v"),
    ] + [(Construction("hamming", m=m), r"^hamming construction: m=%d gives "
          r"dimension 2\^m - 1 > 24$" % m) for m in (6, 100, 100_000)]:
        with pytest.raises(ValueError, match=message):
            construct(c)


@pytest.mark.parametrize("c,name", [
    (Construction("hamming", m=2, n=9, v="1", coord=7), "n"),
    (Construction("hamming", m=3, eps=0), "eps"),
    (Construction("affine", n=3, v="110", m=2), "m"),
    (Construction("affine", n=3, v="110", coord=1), "coord"),
    (Construction("half_cube", n=3, v="110"), "v"),
    (Construction("half_cube", n=2, m=40, eps=1), "eps"),
])
def test_construct_rejects_another_kinds_parameter(c, name):
    with pytest.raises(ValueError, match="^the %s construction takes no %s$"
                       % (c.kind, name)):
        construct(c)


def test_construct_defaults_come_from_the_builders():
    assert construct(Construction("affine", n=3, v="110")).mask == \
        affine_coloring(3, "110", 0).mask
    assert construct(Construction("half_cube", n=3)).mask == \
        half_cube(3, 1).mask


def test_enumerate_n2_antipodal():
    r = enumerate_perfect(2, ParameterMatrix(2, 2, 2))
    assert r.exhaustive
    assert len(r.found) == 2
    assert {frozenset(S.members()) for S in r.found} == \
        {frozenset({"00", "11"}), frozenset({"01", "10"})}


def test_enumerate_no_target_all_satisfy_equality():
    r = enumerate_perfect(2)
    assert len(r.found) > 0
    for S in r.found:
        assert verify(S).slack == 0


def test_enumerate_contains_affine_n3():
    r = enumerate_perfect(3)
    masks = {S.mask for S in r.found}
    for vi in range(1, 8):
        for eps in (0, 1):
            S = affine_coloring(3, index_to_vertex(vi, 3), eps)
            assert S.mask in masks


def test_enumerate_found_are_certified():
    r = enumerate_perfect(3)
    for S in r.found:
        v = check_perfect(S)
        assert v.is_perfect
        assert cor_from_matrix(v.matrix) == cor_order(S)
        assert verify(S).slack == 0


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_perfect(5)


def test_backtrack_finds_perfect_code():
    r = backtrack_search(7, ParameterMatrix(7, 7, 1), budget=10 ** 7,
                         max_results=1)
    assert len(r.found) == 1
    S = r.found[0]
    assert S.size == 16
    v = check_perfect(S)
    assert (v.matrix.b, v.matrix.c) == (7, 1)


def test_backtrack_affine_targets_n3():
    r = backtrack_search(3, ParameterMatrix(3, 2, 2))
    assert r.exhaustive
    weights = {check_perfect(S).matrix.b for S in r.found}
    assert weights == {2}
    affine_masks = {affine_coloring(3, index_to_vertex(v, 3), e).mask
                    for v in (3, 5, 6) for e in (0, 1)}
    assert affine_masks <= {S.mask for S in r.found}


def test_backtrack_parity_classes():
    # b = c = 3 at n = 3 forces the bipartition into the two weight classes
    r = backtrack_search(3, ParameterMatrix(3, 3, 3))
    assert r.exhaustive
    assert {frozenset(S.members()) for S in r.found} == {
        frozenset({"000", "011", "101", "110"}),
        frozenset({"001", "010", "100", "111"}),
    }


def test_backtrack_infeasible_rejected():
    with pytest.raises(ValueError):
        backtrack_search(3, ParameterMatrix(3, 1, 2))  # b + c odd
    with pytest.raises(ValueError):
        backtrack_search(3, ParameterMatrix(3, 0, 0))
    with pytest.raises(ValueError):
        backtrack_search(2, ParameterMatrix(2, 4, 2))  # no integer |S|


@pytest.mark.parametrize("search", [backtrack_search, enumerate_perfect])
def test_engines_reject_a_target_of_another_dimension(search):
    with pytest.raises(ValueError, match=re.escape("target.n=5 differs")) as e:
        search(3, ParameterMatrix(5, 2, 2))
    assert not isinstance(e.value, Infeasible)


@pytest.mark.parametrize("search", [backtrack_search, enumerate_perfect])
def test_engines_raise_infeasible_with_the_same_message(search):
    with pytest.raises(Infeasible, match=re.escape("no integer |S|")):
        search(4, ParameterMatrix(4, 2, 4))


def _outcome(search, n, target):
    """The sorted masks found by a complete search, or what it raised."""
    try:
        r = search(n, target)
    except ValueError as exc:
        return type(exc), str(exc)
    assert r.exhaustive
    return sorted(S.mask for S in r.found)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(-1, n + 1), st.integers(-1, n + 1))))
def test_engines_agree_on_every_target(args):
    n, b, c = args
    target = ParameterMatrix(n, b, c)
    assert _outcome(backtrack_search, n, target) == \
        _outcome(enumerate_perfect, n, target)


def test_backtrack_matches_enumerate_n_le_3():
    for n in (2, 3):
        targets = {(check_perfect(S).matrix.b, check_perfect(S).matrix.c)
                   for S in enumerate_perfect(n).found}
        for b, c in targets:
            bt = backtrack_search(n, ParameterMatrix(n, b, c))
            en = enumerate_perfect(n, ParameterMatrix(n, b, c))
            assert bt.exhaustive
            assert {S.mask for S in bt.found} == {S.mask for S in en.found}


def test_backtrack_budget_partial():
    r = backtrack_search(4, ParameterMatrix(4, 2, 2), budget=5)
    assert not r.exhaustive


def test_backtrack_matches_enumerate_n4():
    n = 4
    for b in range(1, n + 1):
        for c in range(1, n + 1):
            target = ParameterMatrix(n, b, c)
            try:
                _check_feasible(n, target)
            except ValueError:
                continue
            bt = backtrack_search(n, target)
            en = enumerate_perfect(n, target)
            assert bt.exhaustive
            assert sorted(S.mask for S in bt.found) == \
                [S.mask for S in en.found]


def _masks_digest(sets):
    return hashlib.sha256(",".join("%x" % S.mask for S in sets)
                          .encode()).hexdigest()


# (n, b, c, budget, max_results) -> nodes, found, exhaustive and the SHA-256
# of the found masks in hex, comma-joined in found order; recorded from the
# recursive search with a per-vertex neighbor table that the flat loop
# replaced, which must keep its traversal node for node.
GOLDEN_TRAVERSALS = [
    ((4, 2, 2, 10 ** 7, None), 768, 36, True,
     "ac60812451283203481cf8de509db72f1710ad99ece91de0ec3935896e41603a"),
    ((7, 1, 1, 10 ** 7, None), 3052, 14, True,
     "823c9c7596efa1179be8ae82ec2d77887ed7858b61b1313475e5e853c2246cd2"),
    ((6, 6, 2, 10 ** 7, None), 16895, 60, True,
     "68823c77f77a228a4bfd3d9040e120f9a9473485693c89055d6a8272e594c344"),
    ((8, 2, 6, 1024, 1), 1025, 0, False,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ((12, 4, 4, 16384, 1), 6144, 1, False,
     "b96586573e284585d8bae4b68e6272237d31b2dea7b770c5f663a33d1a575591"),
    # recorded from the two-counter loop that the room-counter kernel
    # replaced: a b < c budget miss, a first-found run, and a complete search
    # stopped by its budget after 13 leaves
    ((11, 3, 9, 8192, 1), 8193, 0, False,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ((13, 5, 5, 32768, 1), 12032, 1, False,
     "361e06b4fbe377591828461f1791c473becead5dbfed899912285167e2e18862"),
    ((6, 2, 2, 3000, None), 3001, 13, False,
     "003f0cfdf8fd5fec1b3c5d6a5c2a761a929ca253f20d3e1b2dc3ee1152055c10"),
]


@pytest.mark.parametrize("args,nodes,found,exhaustive,digest",
                         GOLDEN_TRAVERSALS)
def test_backtrack_golden_traversal(args, nodes, found, exhaustive, digest):
    n, b, c, budget, max_results = args
    r = backtrack_search(n, ParameterMatrix(n, b, c), budget=budget,
                         max_results=max_results)
    assert (r.nodes, len(r.found), r.exhaustive) == (nodes, found, exhaustive)
    assert _masks_digest(r.found) == digest


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_backtrack_needs_no_recursion():
    limit = _stack_depth() + 50
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        r = backtrack_search(14, ParameterMatrix(14, 7, 7), max_results=1)
        after = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(old)
    assert after == limit
    assert len(r.found) == 1 and r.stop_reason == "max_results"


def test_backtrack_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        r = backtrack_search(12, ParameterMatrix(12, 4, 4), budget=16384,
                             max_results=1)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(r.found) == 1
    assert unreachable == 0


@pytest.mark.parametrize("max_results", [0, -3])
def test_backtrack_rejects_non_positive_max_results(max_results):
    with pytest.raises(ValueError, match="max_results"):
        backtrack_search(3, ParameterMatrix(3, 2, 2), max_results=max_results)


def test_backtrack_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="budget must be >= 0"):
        backtrack_search(3, ParameterMatrix(3, 2, 2), budget=-1)


@pytest.mark.parametrize("kwargs,reason", [
    ({}, "complete"),
    ({"budget": 5}, "budget"),
    ({"budget": 0}, "budget"),
    ({"max_results": 1}, "max_results"),
    # stops at the last coloring, before the rest of the tree is searched
    ({"max_results": 36}, "max_results"),
])
def test_backtrack_stop_reason(kwargs, reason):
    r = backtrack_search(4, ParameterMatrix(4, 2, 2), **kwargs)
    assert r.stop_reason == reason
    assert r.exhaustive == (reason == "complete")


def test_enumerate_stop_reason_complete():
    r = enumerate_perfect(3, ParameterMatrix(3, 2, 2))
    assert r.stop_reason == "complete" and r.exhaustive


def test_canonical_dedupe():
    r = enumerate_perfect(2, ParameterMatrix(2, 2, 2), canonical=True)
    assert len(r.found) == 1
    assert r.found[0].mask == canonical_mask(r.found[0])


def test_closure_under_translation():
    rng = random.Random(11)
    r = enumerate_perfect(3)
    for S in r.found[:10]:
        t = index_to_vertex(rng.getrandbits(3), 3)
        moved = S.translate(t)
        v = check_perfect(moved)
        ref = check_perfect(S).matrix
        assert v.is_perfect and (v.matrix.b, v.matrix.c) == (ref.b, ref.c)


@st.composite
def _feasible_targets(draw):
    n = draw(st.integers(1, 7))
    b = draw(st.integers(1, n))
    c = draw(st.integers(1, n))
    target = ParameterMatrix(n, b, c)
    try:
        s_target = _check_feasible(n, target)
    except ValueError:
        c = b  # (b, b) is always feasible
        target = ParameterMatrix(n, b, c)
        s_target = _check_feasible(n, target)
    return target, s_target


@settings(max_examples=80, deadline=None)
@given(_feasible_targets(), st.integers(0, 20000),
       st.one_of(st.none(), st.integers(1, 40)))
def test_backtrack_matches_two_counter_reference(target, budget, max_results):
    target, s_target = target
    n = target.n
    r = backtrack_search(n, target, budget=budget, max_results=max_results)
    nodes, stop, masks, prunes, max_depth = reference_backtrack(
        n, target.b, target.c, s_target, budget, max_results)
    assert (r.nodes, r.stop_reason) == (nodes, stop)
    assert [S.mask for S in r.found] == masks
    assert (r.balance_prunes, r.own_prunes, r.neighbour_prunes) == prunes
    assert r.max_depth == max_depth


def test_canonical_mask_matches_reference_on_e4_colorings():
    found = enumerate_perfect(4).found
    assert len(found) == 86
    for S in found:
        assert canonical_mask(S) == reference_canonical_mask(S)


def _coset_union(n, gens, shifts):
    subgroup = {0}
    for g in gens:
        subgroup |= {x ^ g for x in subgroup}
    return VertexSet(n, sum(1 << v for v in {x ^ r for r in shifts
                                             for x in subgroup}))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.one_of(
        st.integers(0, (1 << (1 << n)) - 1),  # any density
        st.lists(st.integers(0, (1 << n) - 1), max_size=80)
        .map(lambda vs: sum(1 << v for v in set(vs))),  # sparse
    ),
    st.lists(st.integers(1, (1 << n) - 1), max_size=n),
    st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))))
def test_canonical_mask_matches_reference(args):
    n, mask, gens, shifts = args
    # a random set, and a union of cosets, whose translations tie on many
    # indices, so the stabiliser test both fails and passes
    for S in (VertexSet(n, mask), _coset_union(n, gens, shifts)):
        assert canonical_mask(S) == reference_canonical_mask(S)
