import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boolcube import VertexSet, cli, spectral
from boolcube.cli import (build_report, main, parse_document,
                          serialize_document)

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
    code, _, _ = run_cli(capsys,
                         ["analyze", str(doc), "--json", "--no-complement"])
    assert code == 3


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
    assert (trace["stop_reason"] == "complete") == summary["exhaustive"]
    if summary["found"]:
        assert trace["max_depth"] == 1 << summary["n"]


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
    # carries over an exec.  The int16 -> int32 widening of the transform
    # sets the peak (about 133 MB); D adds no table of 2^n entries.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(make_doc()))
    child = ("import contextlib, io, re, sys\n"
             "from boolcube.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['analyze', sys.argv[1], '--json'])\n"
             "status = open('/proc/self/status').read()\n"
             "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    p = subprocess.run([sys.executable, "-c", child, str(path)],
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src))
    code, peak_kb = map(int, p.stdout.split())
    assert code == 0
    assert peak_kb <= 160 * 1024


@pytest.mark.parametrize("doc", [
    {"n": True, "vertices": ["1"]},
    {"n": 1, "vertices": "01"},
    {"n": 3, "vertices": [1]},
    {"n": 25, "mask_hex": "00"},
])
def test_analyze_rejects_malformed_documents_exit2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert err.startswith("parse error")
    with pytest.raises(ValueError):
        parse_document(doc)


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
