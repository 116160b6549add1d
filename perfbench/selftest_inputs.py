"""Input generation depends on the seed and nothing else.

Run from the root of a checkout:
    python3 -m pytest -q perfbench/selftest_inputs.py perfbench/selftest_spans.py
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*.json"))}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = gen.make_plan(workload, 7, tmp_path / "a")
    b = gen.make_plan(workload, 7, tmp_path / "b")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_another_seed_gives_other_inputs(tmp_path, workload):
    a = gen.make_plan(workload, 7, tmp_path / "a")
    b = gen.make_plan(workload, 8, tmp_path / "b")
    fa, fb = _files(tmp_path / "a"), _files(tmp_path / "b")
    if workload == "colorings":  # no documents: the targets differ
        assert json.dumps(a["ops"]) != json.dumps(b["ops"])
    else:
        assert set(fa.values()).isdisjoint(fb.values())


def test_inputs_stay_inside_documented_limits(tmp_path):
    for workload in gen.WORKLOADS:
        for op in gen.make_plan(workload, 3, tmp_path)["ops"]:
            f = op["facts"]
            if op["kind"] == "analyze":
                assert f["n"] <= 20
            if op["kind"] in ("exhaustive", "sweep"):
                assert f["n"] <= 4
    ops = gen.make_plan("colorings", 3, tmp_path)["ops"]
    hard = [op for op in ops if op["id"] == "search-hard"]
    assert len(hard) == 1 and hard[0]["facts"]["budget"] == gen.HARD_BUDGET


def test_generated_facts_match_the_constructions():
    n = 7
    a = gen.hamming_membership(n)
    v = oracle.neighbour_verdict(a, n)
    assert int(a.sum()) == 16 and v["perfect"] and (v["b"], v["c"]) == (7, 1)
    a = gen.affine_membership(6, 0b101100, 1)
    v = oracle.neighbour_verdict(a, 6)
    assert v["perfect"] and (v["b"], v["c"]) == (3, 3)
    # E^2: the four half-squares and the two diagonals, which fall into two
    # and one XOR-translation classes.
    perfect = oracle.perfect_colorings(2)
    assert perfect == {(1, 1): [0b0011, 0b0101, 0b1010, 0b1100],
                       (2, 2): [0b0110, 0b1001]}
    assert oracle.translation_classes(perfect[(1, 1)], 2) == [0b0011, 0b0101]
    assert oracle.translation_classes(perfect[(2, 2)], 2) == [0b0110]


def test_sparse_sets_are_never_complemented():
    for p in range(gen.SPARSE_POINTS):
        size = gen.sparse_size(p)
        n = gen.sparse_dimension(p, size)
        assert 2 * size <= 1 << n and gen.SPARSE_N_MIN <= n <= gen.SPARSE_N_MAX
