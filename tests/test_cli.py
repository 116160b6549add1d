import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boolcube import (Infeasible, ParameterMatrix, SweepSummary, VertexSet,
                      check_perfect, cli, spectral)
from boolcube.cli import (build_report, main, parse_document,
                          serialize_document)
from boolcube.search import _check_feasible

from conftest import HAMMING7_WORDS


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_hamming(tmp_path, capsys):
    doc = tmp_path / "h7.json"
    doc.write_text(json.dumps({"n": 7, "vertices": HAMMING7_WORDS}))
    code, out, _ = run_cli(capsys, ["analyze", str(doc), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["cor"] == 3
    assert rep["nei"] == "0/1"
    assert rep["slack"] == "0/1"
    assert rep["is_perfect"] is True
    assert rep["matrix"] == {"b": 7, "c": 1, "rows": [[0, 7], [1, 6]]}
    assert rep["dual_distribution"] == \
        ["1/1", "0/1", "0/1", "0/1", "7/1", "0/1", "0/1", "0/1"]
    assert rep["spectral_support"] == [0, 4]


def test_analyze_singleton_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["analyze", "--json"],
                           stdin=json.dumps({"n": 3, "vertices": ["000"]}),
                           monkeypatch=monkeypatch)
    assert code == 0
    rep = json.loads(out)
    assert rep["slack"] == "5/4"
    assert rep["is_perfect"] is False


def test_analyze_text_output(tmp_path, capsys):
    doc = tmp_path / "s.json"
    doc.write_text(json.dumps({"n": 2, "vertices": ["00", "11"]}))
    code, out, _ = run_cli(capsys, ["analyze", str(doc)])
    assert code == 0
    assert "slack=0/1" in out
    assert "perfect coloring: True" in out


def test_analyze_constant_set_exit3(tmp_path, capsys):
    doc = tmp_path / "e.json"
    doc.write_text(json.dumps({"n": 3, "vertices": []}))
    code, _, err = run_cli(capsys, ["analyze", str(doc)])
    assert code == 3
    assert "constant" in err


def test_analyze_parse_error_exit2(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"n": 3}))
    code, _, err = run_cli(capsys, ["analyze", str(doc)])
    assert code == 2
    doc.write_text("not json")
    assert run_cli(capsys, ["analyze", str(doc)])[0] == 2
    doc.write_text(json.dumps({"n": 3, "vertices": ["00"]}))
    assert run_cli(capsys, ["analyze", str(doc)])[0] == 2
    doc.write_text(json.dumps({"n": 3, "vertices": ["000"],
                               "mask_hex": "01"}))
    assert run_cli(capsys, ["analyze", str(doc)])[0] == 2


def test_analyze_dense_set_complemented(tmp_path, capsys):
    vertices = [format(i, "03b") for i in range(8) if i != 0]
    doc = tmp_path / "d.json"
    doc.write_text(json.dumps({"n": 3, "vertices": vertices}))
    code, out, _ = run_cli(capsys, ["analyze", str(doc), "--json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["complemented"] is True and rep["size"] == 1
    code, out, err = run_cli(
        capsys, ["analyze", str(doc), "--json", "--no-complement"])
    assert (code, out) == (3, "")
    assert err == ("rejected: density above 1/2 and complementing is off; "
                   "analyze the complement instead\n")


def test_construct_hamming(capsys):
    code, out, _ = run_cli(capsys, ["construct", "hamming", "--m", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7 and len(doc["vertices"]) == 16


def test_construct_half_cube(capsys):
    code, out, _ = run_cli(capsys,
                           ["construct", "half-cube", "--n", "4", "--coord", "1"])
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 8


def test_construct_affine(capsys):
    code, out, _ = run_cli(capsys, ["construct", "affine", "--n", "3",
                                    "--v", "110", "--eps", "0"])
    assert code == 0
    assert sorted(json.loads(out)["vertices"]) == \
        ["000", "001", "110", "111"]


def test_construct_invalid_exit2(capsys):
    assert run_cli(capsys, ["construct", "hamming", "--m", "1"])[0] == 2
    code, out, err = run_cli(capsys, ["construct", "hamming", "--m", "5"])
    assert code == 2 and out == ""
    assert err.startswith("invalid parameters: dimension 31 out of range")
    assert run_cli(capsys, ["construct", "affine", "--n", "3",
                            "--v", "000"])[0] == 2
    for argv, message in [
        (["hamming"], "the hamming construction needs m"),
        (["half-cube"], "the half_cube construction needs n"),
        (["affine", "--v", "110"], "the affine construction needs n"),
        (["affine", "--n", "3"], "the affine construction needs v"),
        (["affine", "--n", "3", "--v", "110", "--eps", "2"],
         "eps must be 0 or 1"),
    ] + [(["hamming", "--m", str(m)], "hamming construction: m=%d gives "
          "dimension 2^m - 1 > 24" % m) for m in (6, 100, 100_000)]:
        code, out, err = run_cli(capsys, ["construct"] + argv)
        assert code == 2 and out == ""
        assert err == "invalid parameters: %s\n" % message


@pytest.mark.parametrize("argv,message", [
    (["hamming", "--m", "2", "--n", "9", "--v", "1", "--coord", "7"],
     "the hamming construction takes no n"),
    (["affine", "--n", "3", "--v", "110", "--coord", "1"],
     "the affine construction takes no coord"),
    (["half-cube", "--n", "2", "--m", "40", "--eps", "1"],
     "the half_cube construction takes no eps"),
])
def test_construct_rejects_another_kinds_parameter_exit2(capsys, argv,
                                                         message):
    code, out, err = run_cli(capsys, ["construct"] + argv)
    assert (code, out, err) == (2, "", "invalid parameters: %s\n" % message)


# invalid values of each flag: argparse rejects some, the builders the rest
_CONSTRUCT_INVALID = {
    "--m": ["1", "0", "5", "6", "-3", "2.5", "x", ""],
    "--n": ["0", "25", "-1", "3.5", "y"],
    "--v": ["0", "000", "012", "abc", "1 1", "1101101", ""],
    "--eps": ["2", "-1", "e"],
    "--coord": ["0", "7", "-2", "z"],
}
_CONSTRUCT_TAKES = {"hamming": {"--m"}, "affine": {"--n", "--v", "--eps"},
                    "half-cube": {"--n", "--coord"}}


@st.composite
def _construct_argvs(draw):
    """construct argvs: each flag present or absent (the kind's own flags
    mostly present, the others mostly absent), each value drawn from the
    valid ones for a drawn n <= 6 or, one time in four, from the invalid."""
    kind = draw(st.sampled_from(sorted(_CONSTRUCT_TAKES)))
    n = draw(st.integers(1, 6))
    valid = {"--m": st.sampled_from(["2", "3", "4"]),
             "--n": st.just(str(n)),
             "--v": st.integers(1, (1 << n) - 1).map(
                 lambda v: format(v, "0%db" % n)),
             "--eps": st.sampled_from(["0", "1"]),
             "--coord": st.integers(1, n).map(str)}
    argv = ["construct", kind]
    for flag, bad in _CONSTRUCT_INVALID.items():
        if (draw(st.integers(0, 7)) > 0) == (flag in _CONSTRUCT_TAKES[kind]):
            argv += [flag, draw(valid[flag] if draw(st.integers(0, 3))
                                else st.sampled_from(bad))]
    if draw(st.booleans()):
        argv.append("--as-mask")
    return argv


@settings(max_examples=500, deadline=None, database=None)
@given(_construct_argvs())
def test_construct_contract(argv):
    """Every argv exits 0 or 2 with no traceback, and every exit-0 output is
    a perfect coloring with the kind's documented (b, c)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        return
    flags = dict(zip(argv[2::2], argv[3::2]))  # drops a final --as-mask
    S = parse_document(json.loads(out.getvalue()))
    m = check_perfect(S).matrix
    if argv[1] == "hamming":
        assert (S.n, m.b, m.c) == ((1 << int(flags["--m"])) - 1, S.n, 1)
        return
    assert S.n == int(flags["--n"])
    w = flags["--v"].count("1") if argv[1] == "affine" else 1
    assert (m.b, m.c) == (w, w)


@pytest.mark.parametrize("argv,default", [
    (["affine", "--n", "3", "--v", "110"], ["--eps", "0"]),
    (["half-cube", "--n", "3"], ["--coord", "1"]),
])
def test_construct_defaults_match_the_explicit_flag(capsys, argv, default):
    code, out, _ = run_cli(capsys, ["construct"] + argv)
    assert code == 0
    assert run_cli(capsys, ["construct"] + argv + default) == (0, out, "")


def test_search_n2(capsys):
    code, out, _ = run_cli(capsys, ["search", "--n", "2", "--b", "2",
                                    "--c", "2", "--exhaustive"])
    assert code == 0
    res = json.loads(out)
    assert res["summary"]["found"] == 2
    assert res["summary"]["exhaustive"] is True


def test_search_code_n7(capsys):
    code, out, _ = run_cli(capsys, ["search", "--n", "7", "--b", "7",
                                    "--c", "1", "--budget", "10000000",
                                    "--max-results", "1"])
    assert code == 0
    res = json.loads(out)
    assert res["summary"]["found"] >= 1
    assert len(res["sets"][0]["vertices"]) == 16


@pytest.mark.parametrize("argv", [
    ["--n", "12", "--b", "4", "--c", "4", "--max-results", "1", "--as-mask"],
    ["--n", "8", "--b", "2", "--c", "6", "--budget", "1024"],
    ["--n", "4", "--b", "2", "--c", "2", "--canonical"],
])
def test_search_trace_leaves_stdout_unchanged(capsys, argv):
    code, plain, err = run_cli(capsys, ["search"] + argv)
    assert code == 0 and err == ""
    code, traced, err = run_cli(capsys, ["search"] + argv + ["--trace"])
    assert code == 0 and traced == plain
    assert err.count("\n") == 1
    trace = json.loads(err)
    summary = json.loads(plain)["summary"]
    assert trace["nodes"] == summary["nodes"]
    assert set(trace["prunes"]) == {"balance", "own", "neighbour"}
    assert set(trace["blocks"]) == {"recorded", "replayed"}
    assert (trace["stop_reason"] == "complete") == summary["exhaustive"]
    assert trace["swapped"] == (summary["b"] < summary["c"])
    if summary["found"]:
        assert trace["max_depth"] == 1 << summary["n"]
    if summary["n"] == 12:  # 64 blocks, most of them replayed
        assert trace["blocks"]["replayed"] > trace["blocks"]["recorded"] > 0


# (n, b, c) -> classes, and the SHA-256 of `search --canonical --as-mask`
# stdout without and with --exhaustive, for every feasible (b, c) at
# n = 1..4; recorded when each engine still deduplicated inside itself.
CANONICAL_CELLS = [
    ((1, 1, 1), 1,
     "97cdbba89ac0d0992856ef7f06b8a0b413cb49d526930d209d34de47d2035ff1",
     "2cad9ba888f517b274098bcf669c7385add2bf08e1d2292559e57bfc23e3777a"),
    ((2, 1, 1), 2,
     "402dc039478200d7d71bab6a6520be9c02a853c97b6935338483e5fdcab6e918",
     "4f51640b55ff9643486107542e80dc72d3bc4452af172c80ef4ad192a9486143"),
    ((2, 2, 2), 1,
     "c1dda260b15b9387b4149fca0e88bf8eb1c006a80596b2540bb17454cc7800da",
     "e5aa4229b9335828392f0861f2f34064cf11a47df821ef9bb1eb85123daec05b"),
    ((3, 1, 1), 3,
     "d40bc2f43917e61777fffb6749120cbed248a3e140ef95525e524f5d4714e629",
     "e71abe733df19379b6a8422ca7398093a004d32a88a08967fd5e9560faafd6c8"),
    ((3, 1, 3), 1,
     "2e1fa83ded9b034b30b0dc7b2c9fff39d4958e856866fec3048999b58cadd0f0",
     "1052456e2a6682c622d458b22cc8a8296e5d04d4fb339bbf92347b16a96fcb08"),
    ((3, 2, 2), 3,
     "8665833366d5a00e78ff03fc4a34162f9918fea01cb53825d875f07290b6ba3c",
     "b00c5d7adb9d1dbcd1d94f22540991dadc433513a26a0eb43554e5279c9367fe"),
    ((3, 3, 1), 1,
     "04ee762dd7c1056d06d8e5b4af1e6b59a60ff90d4d19029ab8f62dffc8c8989c",
     "215a1ad3a18c159d8291bc203d5a017311aa9801c220d38e20d8d4aecaaaa29d"),
    ((3, 3, 3), 1,
     "c9a341024ac719df92e209e7e581b8a95498b7492c3a08a1490c184986a5c454",
     "89ff72aa6cf4b6459ae4a8396d25d791262185a4560385782da97d5f8df2a313"),
    ((4, 1, 1), 4,
     "51eb14fb6905c6c9631657e29129981cddb29efaecff1834cbf31a223fe77b3e",
     "1802662ebf7dd888b3dae76f69b4ffacb07dbf81f2a8455a8da63edffab33519"),
    ((4, 1, 3), 4,
     "3fa765a43a6e78c48728395d84d2fdbe81c96fd5f934b7d3849d7bcbc192b616",
     "531bc3afca888c77f05451430c5648360c19de026306764b221bd5118f2a585e"),
    ((4, 2, 2), 9,
     "d8276d3791bbe0d48bdf839fabde7da45c655756fcc30e3119ac13167e52f3fb",
     "cabe57ba8db7deab27dacf5932d8be1591883940c32a95c3c5141fe7c50cea8b"),
    ((4, 3, 1), 4,
     "85475792cc51ee2a31dd2a4cd5e65b6a9739f7bc61f5db973b1e1958e93a3014",
     "282ffd03f5b1ed1459667caed409e6c2365330eb033f3c584b93e79715c9f85d"),
    ((4, 3, 3), 4,
     "e5bd7d0106f1d63c1e3577792250d4aa7e0c0a10e3218ec95dc697c1a9cde6ff",
     "9356d2280892f2c21e65e87901b784d80e369ae05bcc60ff1928aafbc56ec94d"),
    ((4, 4, 4), 1,
     "38a95444e0e63cee9b962be20e6bd546813f7ef4870c829589303294b0eaba0c",
     "bf315736a9b88e228aa98c6a6edc67d7d73d5f2bd929d8ece4d90187b18ab76d"),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_canonical_cells_are_every_feasible_cell_at_n_up_to_4():
    feasible = []
    for n in range(1, 5):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                try:
                    _check_feasible(n, ParameterMatrix(n, b, c))
                except Infeasible:
                    continue
                feasible.append((n, b, c))
    assert [cell for cell, *_ in CANONICAL_CELLS] == feasible
    assert sum(classes for _, classes, *_ in CANONICAL_CELLS) == 39


@pytest.mark.parametrize("cell,classes,backtrack,exhaustive", CANONICAL_CELLS,
                         ids=["%d-%d-%d" % cell for cell, *_ in CANONICAL_CELLS])
def test_search_canonical_same_on_both_routes(capsys, cell, classes,
                                              backtrack, exhaustive):
    argv = ["search", "--n", "%d" % cell[0], "--b", "%d" % cell[1],
            "--c", "%d" % cell[2], "--canonical", "--as-mask"]
    code, out_bt, _ = run_cli(capsys, argv)
    assert code == 0 and _sha256(out_bt) == backtrack
    code, out_ex, _ = run_cli(capsys, argv + ["--exhaustive"])
    assert code == 0 and _sha256(out_ex) == exhaustive
    bt, ex = json.loads(out_bt), json.loads(out_ex)
    assert bt["sets"] == ex["sets"]
    assert bt["summary"]["found"] == ex["summary"]["found"] == classes


def test_search_canonical_after_max_results(capsys):
    # --max-results counts the colorings found, before the dedupe
    code, out, _ = run_cli(capsys, ["search", "--n", "8", "--b", "4",
                                    "--c", "4", "--max-results", "2",
                                    "--canonical", "--as-mask"])
    assert code == 0
    assert _sha256(out) == \
        "1ac77d3ae2480224c30f3fb7f2a91f81dbc79436c2df9fb0f9995f797f0dd1ec"


def test_search_infeasible_exit4(capsys):
    assert run_cli(capsys, ["search", "--n", "3", "--b", "1",
                            "--c", "2"])[0] == 4


@pytest.mark.parametrize("n,b,c", [
    (3, 1, 2),  # b + c odd
    (3, 0, 2),  # b out of range
    (3, 5, 5),  # b and c out of range
    (4, 2, 4),  # no integer |S|
])
def test_search_infeasible_same_on_both_routes_exit4(capsys, n, b, c):
    argv = ["search", "--n", str(n), "--b", str(b), "--c", str(c)]
    code, out, err = run_cli(capsys, argv)
    assert code == 4 and out == ""
    assert err.startswith("infeasible parameters: ")
    assert run_cli(capsys, argv + ["--exhaustive"]) == (code, out, err)


def test_search_fon_der_flaass_exit4(capsys):
    # formerly spent its whole node budget and exited 0 with nothing found
    code, out, err = run_cli(capsys, ["search", "--n", "11", "--b", "5",
                                      "--c", "11"])
    assert code == 4 and out == ""
    assert "Fon-Der-Flaass" in err


@pytest.mark.parametrize("argv,message", [
    (["--n", "25"], "dimension 25 out of range"),
    (["--n", "0"], "dimension 0 out of range"),
    pytest.param(["--exhaustive", "--n", "5"],
                 "exhaustive enumeration: dimension 5 out of range [1, 4]",
                 id="exhaustive-n5"),
    pytest.param(["--exhaustive", "--n", "0"],
                 "exhaustive enumeration: dimension 0 out of range [1, 4]",
                 id="exhaustive-n0"),
])
def test_search_dimension_out_of_range_exit2(capsys, argv, message):
    code, out, err = run_cli(capsys, ["search", "--b", "2", "--c", "2"] + argv)
    assert code == 2 and out == ""
    assert message in err


def test_search_exhaustive_rejects_max_results_exit2(capsys):
    code, out, err = run_cli(capsys, ["search", "--exhaustive", "--n", "3",
                                      "--b", "2", "--c", "2",
                                      "--max-results", "1"])
    assert code == 2 and out == ""
    assert "--max-results applies to backtracking only" in err


def test_sweep(capsys):
    for n in ("1", "2", "3", "4"):
        code, out, _ = run_cli(capsys, ["sweep", "--n", n])
        assert code == 0
        assert "no violations" in out


def test_document_round_trip_exhaustive():
    for n in range(1, 5):
        for mask in range(1 << (1 << n)):
            S = VertexSet(n, mask)
            for as_mask in (False, True):
                doc = serialize_document(S, as_mask=as_mask)
                assert parse_document(json.loads(json.dumps(doc))) == S


def test_mask_hex_digit_count():
    doc = serialize_document(VertexSet(3, 0b10110001), as_mask=True)
    assert doc["mask_hex"] == "b1"
    assert len(serialize_document(VertexSet(4, 0), as_mask=True)["mask_hex"]) == 4
    assert len(serialize_document(VertexSet(2, 5), as_mask=True)["mask_hex"]) == 1


def test_mask_hex_bit_order():
    # bit i of the little-endian decoded bytes is vertex index i
    S = parse_document({"n": 3, "mask_hex": "03"})
    assert set(S.members()) == {"000", "001"}
    S = parse_document({"n": 4, "mask_hex": "0001"})
    assert S.member_indices() == [8]


def test_report_determinism(hamming7):
    a = json.dumps(build_report(hamming7), sort_keys=True)
    b = json.dumps(build_report(hamming7), sort_keys=True)
    assert a == b


DOC24 = {"n": 24, "mask_hex": "01" + "0" * ((1 << 24) // 4 - 2)}


@pytest.mark.parametrize("doc,slack", [
    ({"n": 21, "vertices": ["0" * 21]}, "19922945/1048576"),
    (DOC24, "184549377/8388608"),
], ids=["n21", "n24"])
def test_analyze_one_vertex_above_n20(tmp_path, capsys, doc, slack):
    # slack of a single vertex: n - 2 + 2^(1-n)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["analyze", str(path), "--json"])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["slack"] == slack and rep["size"] == 1 and rep["cor"] == 0
    assert rep["distance_counts"] == [1] + [0] * doc["n"]


@pytest.mark.parametrize("make_doc", [
    lambda: DOC24,
    lambda: serialize_document(
        VertexSet(24, random.Random(24).getrandbits(1 << 24)), as_mask=True),
], ids=["one-vertex", "random-half"])
def test_analyze_n24_peak_rss_in_a_fresh_process(tmp_path, make_doc):
    # The child reports VmHWM, the peak RSS of its own process image. Its
    # ru_maxrss would also count the peak of this test process, which Linux
    # carries over an exec.  The transform's 64 MB buffer sets the peak
    # (about 102 MB): its int16 table is widened over that buffer in place,
    # where two tables held at once made 133 MB; D adds no table of 2^n
    # entries.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(make_doc()))
    code, peak_kb = _peak_kb_in_a_fresh_process(
        ["analyze", str(path), "--json"])
    assert code == 0
    assert peak_kb <= 128 * 1024


def test_search_n24_peak_rss_in_a_fresh_process():
    # The search keeps 2^24 colour bytes (16 MB) and one packed int of
    # rooms per 64-vertex block, 2^18 list slots (2 MB) that share one int
    # until a block is left: about 48 MB in all, where one list of 2^24
    # Python-list slots more (128 MB) would pass 128 MB.
    code, peak_kb = _peak_kb_in_a_fresh_process(
        ["search", "--n", "24", "--b", "12", "--c", "12", "--budget", "10"])
    assert code == 0
    assert peak_kb <= 128 * 1024


def _peak_kb_in_a_fresh_process(argv):
    """(exit code, VmHWM in kB) of the CLI run on argv in a new interpreter,
    its stdout discarded."""
    child = ("import contextlib, io, re, sys\n"
             "from boolcube.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(sys.argv[1:])\n"
             "status = open('/proc/self/status').read()\n"
             "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    p = subprocess.run([sys.executable, "-c", child] + argv,
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src))
    code, peak_kb = map(int, p.stdout.split())
    return code, peak_kb


@pytest.mark.parametrize("doc", [
    {"n": True, "vertices": ["1"]},
    {"n": 1, "vertices": "01"},
    {"n": 3, "vertices": [1]},
    {"n": 25, "mask_hex": "00"},
    [1, 2],  # not an object
    {"n": 3, "mask_hex": 255},  # not a string
    {"n": 3, "mask_hex": "0"},  # n = 3 needs 2 digits
    # JSON text nested past the recursion limit, which json.load reaches
    # before there is a document to check
    pytest.param("[" * 100000 + "]" * 100000, id="nested-1e5"),
])
def test_analyze_rejects_malformed_documents_exit2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert err.startswith("parse error")
    if not isinstance(doc, str):
        with pytest.raises(ValueError):
            parse_document(doc)


@pytest.mark.parametrize("doc", [
    {"n": 4, "mask_hex": "ff  "},
    {"n": 5, "mask_hex": "0f0f  0f"},
])
def test_mask_hex_with_whitespace_exit2(tmp_path, capsys, doc):
    """bytes.fromhex skips whitespace, so these have the required length
    but would read as fewer bytes: another set."""
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert "bad hex digits in mask_hex" in err


@pytest.mark.parametrize("violations,equality_cases,message", [
    ((5, 9), 6, "VIOLATION at masks (5, 9)"),
    ((), 5, "VIOLATION: equality cases != perfect colorings"),
])
def test_sweep_violation_exit5(monkeypatch, capsys, violations,
                               equality_cases, message):
    """Both VIOLATION branches, from a summary with a failing mask and from
    one whose equality cases are not its perfect colorings."""
    summary = SweepSummary(n=2, checked=14, equality_cases=equality_cases,
                           perfect_count=6, violations=violations,
                           bf_equality_cases=0)
    monkeypatch.setattr(cli, "sweep", lambda n: summary)
    code, out, err = run_cli(capsys, ["sweep", "--n", "2"])
    assert code == 5 and "no violations" not in out
    assert err == message + "\n"


def test_sweep_out_of_range_exit2(capsys):
    for n in ("5", "0", "-1"):
        code, out, err = run_cli(capsys, ["sweep", "--n", n])
        assert code == 2 and out == ""
        assert ("exhaustive enumeration: dimension %s out of range [1, 4]"
                % n) in err


def test_search_negative_budget_exit2(capsys):
    code, out, err = run_cli(capsys, ["search", "--n", "3", "--b", "1",
                                      "--c", "1", "--budget", "-5"])
    assert code == 2 and out == ""
    assert "--budget" in err


@pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
@pytest.mark.parametrize("max_results", ["0", "-3"])
def test_search_non_positive_max_results_exit2(capsys, max_results, extra):
    code, out, err = run_cli(capsys, ["search", "--n", "3", "--b", "2",
                                      "--c", "2", "--max-results",
                                      max_results] + extra)
    assert code == 2 and out == ""
    assert "--max-results" in err


@pytest.mark.parametrize("b,c", [(0, 2), (2, 0), (0, 0)])
def test_search_zero_b_or_c_exit4(capsys, b, c):
    code, out, err = run_cli(capsys, ["search", "--n", "3", "--b", str(b),
                                      "--c", str(c)])
    assert code == 4 and out == ""
    assert "b, c >= 1" in err


@pytest.mark.parametrize("size,complemented", [
    (5096, False),                    # dense
    (100, False),                     # sparse
    (12000, True),                    # density > 1/2: complemented
])
def test_build_report_runs_one_fwht(monkeypatch, size, complemented):
    _assert_one_fwht(monkeypatch, 14, size, complemented)


@pytest.mark.parametrize("size,complemented", [
    ((1 << 17) - 1000, False),        # dense, blocked transform
    ((1 << 17) + 5000, True),         # density > 1/2: complemented
])
def test_build_report_runs_one_fwht_n18(monkeypatch, size, complemented):
    _assert_one_fwht(monkeypatch, 18, size, complemented)


def _assert_one_fwht(monkeypatch, n, size, complemented):
    a = np.zeros(1 << n, dtype=np.uint8)
    a[np.random.default_rng(size).permutation(1 << n)[:size]] = 1
    S = VertexSet(n, int.from_bytes(np.packbits(a, bitorder="little"),
                                    "little"))
    calls = []
    fwht = spectral._fwht_inplace
    monkeypatch.setattr(spectral, "_fwht_inplace",
                        lambda a: calls.append(1) or fwht(a))
    rep = build_report(S)
    assert len(calls) == 1
    assert rep["complemented"] is complemented
    assert rep["size"] == min(size, (1 << n) - size)


def _fresh_process(argv):
    """(exit code, stdout) of the CLI in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run([sys.executable, "-m", "boolcube.cli"] + argv,
                       capture_output=True, text=True, env=env)
    return p.returncode, p.stdout


@pytest.mark.parametrize("argv", [
    ["analyze", "--json"],
    ["construct", "hamming", "--m", "3"],
    ["search", "--n", "4", "--b", "2", "--c", "2", "--max-results", "1"],
    ["sweep", "--n", "2"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_141_without_traceback(argv):
    """A reader that has gone before the command writes: stdout is a pipe
    whose read end is already closed, so the write, or main's flush, fails
    with EPIPE."""
    doc = json.dumps({"n": 7, "vertices": HAMMING7_WORDS})
    src = str(Path(cli.__file__).resolve().parents[1])
    r, w = os.pipe()
    os.close(r)
    try:
        p = subprocess.run([sys.executable, "-m", "boolcube.cli"] + argv,
                           input=doc, stdout=w, stderr=subprocess.PIPE,
                           text=True, env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(w)
    assert p.returncode == 141
    assert cli.EXIT_PIPE == 141
    assert "Traceback" not in p.stderr
    assert "Exception ignored" not in p.stderr


def test_no_stdout_at_all_exits_0():
    """With fd 1 closed from the start Python sets sys.stdout to None, and
    print writes nothing; main's flush must not fail on that."""
    src = str(Path(cli.__file__).resolve().parents[1])
    p = subprocess.run([sys.executable, "-m", "boolcube.cli", "construct",
                        "hamming", "--m", "3"], stderr=subprocess.PIPE,
                       text=True, env=dict(os.environ, PYTHONPATH=src),
                       preexec_fn=lambda: os.close(1))
    assert (p.returncode, p.stderr) == (0, "")


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_main_reuses_its_parser_across_mixed_calls(tmp_path, capsys):
    doc = tmp_path / "h7.json"
    doc.write_text(json.dumps({"n": 7, "vertices": HAMMING7_WORDS}))
    calls = [
        ["analyze", str(doc), "--json"],
        ["construct", "affine", "--n", "4", "--v", "0110"],
        ["search", "--n", "3", "--b", "2", "--c", "2", "--max-results", "1"],
        ["analyze", "--bogus", str(doc)],            # parse error
        ["sweep", "--n", "2"],
        ["search", "--n", "3", "--b", "2"],          # missing --c
        ["search", "--n", "4", "--b", "3", "--c", "3", "--exhaustive"],
        ["search", "--n", "3", "--b", "0", "--c", "2"],  # infeasible
        ["construct", "hamming", "--m", "3", "--as-mask"],
        ["analyze", str(doc)],
    ]

    def norm(out):  # the sweep prints its own timing
        return re.sub(r"in [0-9.]+s", "in Ts", out)

    for argv in calls:
        code, out = _in_process(capsys, argv)
        fresh_code, fresh_out = _fresh_process(argv)
        assert (code, norm(out)) == (fresh_code, norm(fresh_out)), argv
    assert [_in_process(capsys, c)[0] for c in calls] == \
        [0, 0, 0, 2, 0, 2, 0, 4, 0, 0]


def test_main_calls_the_current_cmd_binding(tmp_path, capsys, monkeypatch):
    assert main(["sweep", "--n", "2"]) == 0  # the parser is built by now
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze",
                        lambda args: seen.append(args.input) or 7)
    assert main(["analyze", "doc.json", "--json"]) == 7
    assert seen == ["doc.json"]
