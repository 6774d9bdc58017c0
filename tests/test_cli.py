import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ttno.assembly import (dense_element_count, element_count, read_ttno,
                           write_ttno)
from ttno import closedform
from ttno.cli import (EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION,
                      EXIT_VERIFY, load_hamiltonian, main,
                      verify_dump_against)
from ttno.operators import random_hamiltonian
from ttno.tree import TreeTopology, json_key_int

from conftest import DEMO_EDGES, refuse_allocation
from oracles import pick_nonleaf_root, random_tree_edges

TREE_JSON = {"root": 1, "edges": [list(e) for e in DEMO_EDGES]}
HAM_JSON = {"terms": [
    {"coeff": [1, 0], "factors": {"2": "Y", "3": "X", "4": "X"}},
    {"coeff": [1, 0], "factors": {"1": "X", "2": "Y", "6": "Y"}},
    {"coeff": [1, 0], "factors": {"1": "X", "2": "Y", "5": "Z"}},
    {"coeff": [1, 0], "factors": {"5": "Z", "7": "X", "8": "X"}},
]}


@pytest.fixture
def files(tmp_path):
    tree = tmp_path / "tree.json"
    ham = tmp_path / "ham.json"
    tree.write_text(json.dumps(TREE_JSON))
    ham.write_text(json.dumps(HAM_JSON))
    return tmp_path, str(tree), str(ham)


def test_build_with_verify(files, capsys):
    tmp, tree, ham = files
    out = str(tmp / "out.json")
    report = str(tmp / "report.csv")
    rc = main(["build", tree, ham, "--out", out, "--report", report,
               "--verify"])
    assert rc == EXIT_OK
    lines = (tmp / "report.csv").read_text().splitlines()
    assert lines[0] == "edge,alg_dim"
    dims = dict(line.split(",") for line in lines[1:])
    assert max(int(v) for v in dims.values()) == 3


def test_build_malformed_json(files):
    tmp, tree, _ = files
    bad = tmp / "bad.json"
    bad.write_text("{not json")
    rc = main(["build", tree, str(bad), "--out", str(tmp / "o.json")])
    assert rc == EXIT_PARSE


PAIR_TERM = {"coeff": [1, 0], "factors": {"1": "X", "2": "X"}}


@pytest.mark.parametrize("tree_json, ham_json, message", [
    (TREE_JSON, {"terms": [{"coeff": 2.0, "factors": {"1": "X"}}]},
     "term 0: 'coeff'"),
    (TREE_JSON, {"terms": [PAIR_TERM, {"factors": {"a": "X"}}]},
     "term 1: 'factors' site 'a'"),
    (TREE_JSON, {"operators": {"Q": {"matrix": [[1, 0]]}},
                 "terms": [PAIR_TERM]}, "operator 'Q'"),
    (TREE_JSON, [PAIR_TERM], "hamiltonian JSON must be an object"),
    ([TREE_JSON], HAM_JSON, "tree JSON must be an object"),
    ({"root": 1, "edges": [[1, 2], [3]]}, HAM_JSON, "edge [3]"),
    ({"root": "a", "edges": [[1, 2]]}, HAM_JSON, "root 'a'"),
    (dict(TREE_JSON, phys_dims={"x": 2}), HAM_JSON, "phys_dims entry 'x'"),
    (TREE_JSON, {"terms": [PAIR_TERM, {"factors": {"3": "Q"}}]},
     "term 1, site 3: no matrix for label 'Q'"),
    (dict(TREE_JSON, phys_dims=[2, 2]), HAM_JSON, "'phys_dims' must be"),
    (TREE_JSON, {"terms": 3}, "'terms' must be"),
    (TREE_JSON, {"operators": [{"dim": 2}], "terms": [PAIR_TERM]},
     "'operators' must be"),
    (TREE_JSON, {"operators": {"I": {"dim": 2, "matrix": [
        [0, 0], [1, 0], [1, 0], [0, 0]]}}, "terms": [PAIR_TERM]},
     "operator 'I'"),
    (TREE_JSON, {"terms": [PAIR_TERM, {"coeff": [float("nan"), 0],
                                       "factors": {"1": "Y"}}]},
     "term 1: 'coeff' [nan, 0] is not finite"),
    (TREE_JSON, {"terms": [{"coeff": [float("inf"), 0], "factors": {}}]},
     "term 0: 'coeff' [inf, 0] is not finite"),
    (TREE_JSON, {"operators": {"Q": {"dim": 2, "matrix": [
        [float("nan"), 0], [1, 0], [1, 0], [0, 0]]}}, "terms": [PAIR_TERM]},
     "operator 'Q': matrix entries must be finite"),
    (TREE_JSON, {"operators": {"Q": {"dim": -2, "matrix": [
        [0, 0], [1, 0], [1, 0], [0, 0]]}}, "terms": [PAIR_TERM]},
     "operator 'Q': 'dim' -2 must be >= 1"),
    (TREE_JSON, {"terms": [PAIR_TERM, {"factors": {"1": "X", "01": "Z"}}]},
     "term 1: 'factors' keys '1' and '01' both name site 1"),
    (TREE_JSON, {"terms": [PAIR_TERM, {"factors": {"1": ["X"]}}]},
     "term 1, site 1: factor label ['X'] must be a string"),
    # JSON values that int() or complex() would quietly round or read
    (dict(TREE_JSON, root=True), HAM_JSON, "root True"),
    (TREE_JSON, {"terms": [PAIR_TERM, {"coeff": [True, 0],
                                       "factors": {"1": "Y"}}]},
     "term 1: 'coeff' must be a [re, im] pair of numbers"),
    (dict(TREE_JSON, edges=[[1, 2.5]] + TREE_JSON["edges"][1:]), HAM_JSON,
     "edge [1, 2.5]"),
    (dict(TREE_JSON, phys_dims={"1": 2.7}), HAM_JSON,
     "phys_dims entry '1': 2.7"),
    (TREE_JSON, {"operators": {"Q": {"dim": 2.5, "matrix": [
        [0, 0], [1, 0], [1, 0], [0, 0]]}}, "terms": [PAIR_TERM]},
     "operator 'Q': needs an integer 'dim'"),
    (TREE_JSON, {"operators": [], "terms": [PAIR_TERM]},
     "'operators' must be"),
    (dict(TREE_JSON, phys_dims=[]), HAM_JSON, "'phys_dims' must be"),
    (TREE_JSON, {"operators": {"Q": {"dim": 2, "matrix": [[0, 0]] * 3}},
                 "terms": [PAIR_TERM]},
     "matrix for 'Q' must hold 4 row-major entries"),
    (TREE_JSON, {"operators": {"Q": {"dim": 0, "matrix": []}},
                 "terms": [PAIR_TERM]}, "operator 'Q': 'dim' 0 must be >= 1"),
    (TREE_JSON, {"terms": [PAIR_TERM, {"factors": [["1", "X"]]}]},
     "term 1: needs an object 'factors'"),
    (TREE_JSON, {"terms": []}, "hamiltonian has no terms"),
])
def test_build_malformed_fields(tmp_path, capsys, tree_json, ham_json,
                                message):
    tree, ham = tmp_path / "tree.json", tmp_path / "ham.json"
    tree.write_text(json.dumps(tree_json))
    ham.write_text(json.dumps(ham_json))
    rc = main(["build", str(tree), str(ham), "--out", str(tmp_path / "o")])
    assert rc == EXIT_VALIDATION
    assert message in capsys.readouterr().err


TEN_TREE = {"root": 2, "edges": [[1, 2], [2, 10]]}
TEN_TERM = {"coeff": [1, 0], "factors": {"1": "X", "10": "X"}}


@pytest.mark.parametrize("tree_json, ham_json, message", [
    (dict(TEN_TREE, phys_dims={"1_0": 3}), {"terms": [PAIR_TERM]},
     "phys_dims entry '1_0'"),
    (dict(TEN_TREE, phys_dims={"2": 3, " 02": 4}), {"terms": [TEN_TERM]},
     "phys_dims entry ' 02'"),
    (TEN_TREE, {"terms": [{"coeff": [1, 0], "factors": {"1_0": "X"}}]},
     "term 0: 'factors' site '1_0' is not written as the integer 10"),
    (TEN_TREE, {"terms": [{"coeff": [1, 0], "factors": {"+2": "X"}}]},
     "term 0: 'factors' site '+2'"),
])
def test_build_refuses_non_canonical_site_keys(tmp_path, capsys, tree_json,
                                               ham_json, message):
    # int() read "1_0" as site 10 and " 02" as site 2, so these built
    tree, ham = tmp_path / "tree.json", tmp_path / "ham.json"
    tree.write_text(json.dumps(tree_json))
    ham.write_text(json.dumps(ham_json))
    out = tmp_path / "o.json"
    rc = main(["build", str(tree), str(ham), "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()
    tree.write_text(json.dumps(TEN_TREE))
    ham.write_text(json.dumps({"terms": [TEN_TERM]}))
    assert main(["build", str(tree), str(ham), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("tree_text, ham_text, at_fault, message", [
    ('{"root": 2, "root": 1, "edges": [[1, 2]]}',
     json.dumps({"terms": [PAIR_TERM]}), "tree", "key 'root' is given twice"),
    (json.dumps({"root": 1, "edges": [[1, 2]]}),
     '{"terms": [{"factors": {"1": "X"}}, {"factors": {"1": "X", "1": "Z"}}]}',
     "ham", "key '1' is given twice in terms > 1 > factors"),
    ('{"root": 1, "edges": [[1, 2]], "phys_dims": {"2": 3, "2": 2}}',
     json.dumps({"terms": [PAIR_TERM]}), "tree",
     "key '2' is given twice in phys_dims"),
], ids=["tree_root", "factors_site", "phys_dims_site"])
def test_build_refuses_repeated_keys(tmp_path, capsys, tree_text, ham_text,
                                     at_fault, message):
    # json.load kept the last value of a repeated key: these built, exit 0
    tree, ham = tmp_path / "tree.json", tmp_path / "ham.json"
    tree.write_text(tree_text)
    ham.write_text(ham_text)
    out = tmp_path / "o.json"
    rc = main(["build", str(tree), str(ham), "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert f"{tmp_path / at_fault}.json: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tree_json, ham_json, message", [
    (dict(TREE_JSON, phys_dim={"1": 3}), HAM_JSON,
     "tree JSON: unknown key 'phys_dim', not one of 'root', 'edges', "
     "'phys_dims'"),
    (TREE_JSON, dict(HAM_JSON, term=[PAIR_TERM]),
     "hamiltonian JSON: unknown key 'term', not one of 'operators', "
     "'terms'"),
    (TREE_JSON, {"terms": [PAIR_TERM, {"coef": [2, 0],
                                       "factors": {"1": "X"}}]},
     "term 1: unknown key 'coef', not one of 'coeff', 'factors'"),
    (TREE_JSON, {"terms": [PAIR_TERM, {"factor": {"1": "X"}}]},
     "term 1: unknown key 'factor', not one of 'coeff', 'factors'"),
    (TREE_JSON, {"operators": {"Q": {"dim": 2, "matrix": [[0, 0]] * 4,
                                     "hermitian": True}},
                 "terms": [PAIR_TERM]},
     "operator 'Q': unknown key 'hermitian', not one of 'dim', 'matrix'"),
], ids=["tree", "hamiltonian", "term_coef", "term_factor", "operator"])
def test_build_refuses_unknown_keys(tmp_path, capsys, tree_json, ham_json,
                                    message):
    # a key nothing reads was dropped: "coef" built coefficient 1, "factor"
    # the identity term, and "phys_dim" left every dimension at 2
    tree, ham = tmp_path / "tree.json", tmp_path / "ham.json"
    tree.write_text(json.dumps(tree_json))
    ham.write_text(json.dumps(ham_json))
    out = tmp_path / "o.json"
    rc = main(["build", str(tree), str(ham), "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("terms, message", [
    ([PAIR_TERM, {"coeff": [0, 0], "factors": {"1": "Y"}}],
     "term 1: term coefficient must be non-zero"),
    ([PAIR_TERM, {"factors": {"1": "Y", "2": "I"}}],
     "term 1: identity factor at site 2: identities are implicit"),
    ([PAIR_TERM, {"factors": {"3": "Z"}}, dict(PAIR_TERM)],
     "term 2 repeats term 0: ProductTerm(1 * [X@1 X@2])"),
], ids=["zero_coeff", "identity_factor", "repeat"])
def test_build_refusals_name_the_term(tmp_path, capsys, terms, message):
    tree, ham = tmp_path / "tree.json", tmp_path / "ham.json"
    tree.write_text(json.dumps(TREE_JSON))
    ham.write_text(json.dumps({"terms": terms}))
    out = tmp_path / "o.json"
    rc = main(["build", str(tree), str(ham), "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


def test_build_verify_mismatch(files, monkeypatch, capsys):
    tmp, tree, ham = files
    monkeypatch.setattr("ttno.cli.to_dense",
                        lambda h, registry: np.zeros((256, 256)))
    rc = main(["build", tree, ham, "--out", str(tmp / "o.json"), "--verify"])
    assert rc == EXIT_VERIFY
    assert capsys.readouterr().err == ("verification FAILED: contraction "
                                       "differs from dense build\n")


def test_build_site_mismatch(files):
    tmp, tree, _ = files
    ham = tmp / "mism.json"
    ham.write_text(json.dumps(
        {"terms": [{"coeff": [1, 0], "factors": {"99": "X"}}]}))
    rc = main(["build", tree, str(ham), "--out", str(tmp / "o.json")])
    assert rc == EXIT_VALIDATION


def test_build_cap_exceeded(files, monkeypatch, capsys):
    tmp, tree, ham = files
    monkeypatch.setenv("TTNO_DENSE_CAP", "16")
    rc = main(["build", tree, ham, "--out", str(tmp / "o.json"), "--verify"])
    assert rc == EXIT_CAP
    assert "TTNO_DENSE_CAP" in capsys.readouterr().err


def test_build_dense_cap_not_an_integer(files, monkeypatch, capsys):
    tmp, tree, ham = files
    monkeypatch.setenv("TTNO_DENSE_CAP", "abc")
    rc = main(["build", tree, ham, "--out", str(tmp / "o.json"), "--verify"])
    assert rc == EXIT_VALIDATION
    assert "TTNO_DENSE_CAP 'abc' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tree", "hamiltonian", "plotdata"])
def test_input_not_utf8_is_a_parse_error(files, capsys, command):
    tmp, tree, ham = files
    bad = str(tmp / "bad.bin")
    (tmp / "bad.bin").write_bytes(b"\xff\xfe{}")
    out = str(tmp / "o.json")
    argv = {"tree": ["build", bad, ham, "--out", out],
            "hamiltonian": ["build", tree, bad, "--out", out],
            "plotdata": ["plotdata", bad, "--out-prefix", str(tmp / "p")],
            }[command]
    assert main(argv) == EXIT_PARSE
    assert bad in capsys.readouterr().err


def _nested_input(field: str, depth: int) -> str:
    """Tree or Hamiltonian JSON with ``field`` nested ``depth`` lists deep."""
    nested = "[" * depth + "]" * depth
    if field == "edges":
        return f'{{"root": 1, "edges": {nested}}}'
    return f'{{"terms": {nested}}}'


@pytest.mark.parametrize("field", ["terms", "edges"])
def test_input_nested_too_deep_is_a_parse_error(files, capsys, field):
    # 1,000 levels overflowed the JSON decoder's recursion: exit 1 with a
    # RecursionError traceback
    tmp, tree, ham = files
    bad = tmp / "deep.json"
    bad.write_text(_nested_input(field, 1000))
    out = tmp / "o.json"
    argv = (["build", str(bad), ham] if field == "edges"
            else ["build", tree, str(bad)])
    assert main(argv + ["--out", str(out)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"parse error: {bad}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@given(field=st.sampled_from(["terms", "edges"]),
       depth=st.integers(1, 3000))
def test_nested_input_at_any_depth_exits_documented(tmp_path_factory, field,
                                                    depth):
    # shallow nesting is refused by validation, deep nesting by the parser;
    # no depth escapes as an exception
    tmp = tmp_path_factory.mktemp("deep")
    (tmp / "tree.json").write_text(json.dumps(TREE_JSON))
    (tmp / "ham.json").write_text(json.dumps(HAM_JSON))
    bad = tmp / "deep.json"
    bad.write_text(_nested_input(field, depth))
    argv = (["build", str(bad), str(tmp / "ham.json")] if field == "edges"
            else ["build", str(tmp / "tree.json"), str(bad)])
    with redirect_stderr(io.StringIO()) as err:
        rc = main(argv + ["--out", str(tmp / "o.json")])
    assert rc in (EXIT_PARSE, EXIT_VALIDATION)
    if rc == EXIT_PARSE:
        assert err.getvalue().startswith(f"parse error: {bad}: ")
    assert not (tmp / "o.json").exists()


@pytest.mark.parametrize("command", ["build --out", "build --report",
                                     "plotdata --out-prefix"])
def test_unwritable_output_is_a_parse_error(files, capsys, command):
    tmp, tree, ham = files
    missing = str(tmp / "missing" / "out")
    detail = str(tmp / "d.csv")
    assert main(["bench", tree, "--terms", "5", "--samples", "2",
                 "--seed", "3", "--out", detail]) == EXIT_OK
    out = str(tmp / "o.json")
    argv = {"build --out": ["build", tree, ham, "--out", missing],
            "build --report": ["build", tree, ham, "--out", out,
                               "--report", missing],
            "plotdata --out-prefix": ["plotdata", detail,
                                      "--out-prefix", missing],
            }[command]
    assert main(argv) == EXIT_PARSE
    assert missing in capsys.readouterr().err


def test_build_unallocatable_tensor(files, monkeypatch, capsys):
    # only the verification builds dense tensors
    tmp, tree, ham = files
    refuse_allocation(monkeypatch, (3, 2, 2, 2, 2))
    assert main(["build", tree, ham, "--out", str(tmp / "o.json")]) == EXIT_OK
    capsys.readouterr()
    rc = main(["build", tree, ham, "--out", str(tmp / "o.json"), "--verify"])
    assert rc == EXIT_CAP
    err = capsys.readouterr().err
    # sites 2 and 5 share the shape; the contraction, children first,
    # reaches 5 first
    assert "site 5" in err and "(3, 2, 2, 2, 2)" in err
    # the cap does not govern the tensors, so the hint must not name it
    assert "TTNO_DENSE_CAP" not in err


def test_build_checks_labels_without_building_matrices(tmp_path, monkeypatch,
                                                        capsys):
    # the load check built each factor's matrix: at a 3,000,000-dim site
    # that was numpy's MemoryError traceback and exit 1.  B's factory
    # allocates with np.zeros, so refusing its 5 x 5 array stands in for a
    # matrix too large for memory; emission then names the site
    (tmp_path / "tree.json").write_text(json.dumps(
        {"root": 1, "edges": [[1, 2]], "phys_dims": {"2": 5}}))
    (tmp_path / "ham.json").write_text(json.dumps(
        {"terms": [{"factors": {"1": "X", "2": "B"}}]}))
    refuse_allocation(monkeypatch, (5, 5))
    out = tmp_path / "out.json"
    assert main(["build", str(tmp_path / "tree.json"),
                 str(tmp_path / "ham.json"), "--out", str(out)]) == EXIT_CAP
    assert "site 2: the 5 x 5 matrix of operator 'B'" in capsys.readouterr().err
    assert not out.exists()


def test_build_refuses_unallocatable_phys_dim(tmp_path, capsys):
    # numpy refuses a 2**32 x 2**32 identity before allocating anything
    (tmp_path / "tree.json").write_text(json.dumps(
        {"root": 0, "edges": [[0, 1]], "phys_dims": {"1": 2 ** 32}}))
    (tmp_path / "ham.json").write_text(json.dumps(
        {"terms": [{"factors": {"0": "X"}}]}))
    out = tmp_path / "out.json"
    assert main(["build", str(tmp_path / "tree.json"),
                 str(tmp_path / "ham.json"), "--out", str(out)]) == EXIT_CAP
    err = capsys.readouterr().err
    assert f"site 1: the {2 ** 32} x {2 ** 32} matrix of operator 'I'" in err
    assert not out.exists()


def build_refusing_overflow(tmp_path, tree, ham):
    """``build`` of ``tree`` and ``ham`` with every warning raised as an
    error: its exit code, its stderr, and whether it wrote the dump."""
    (tmp_path / "tree.json").write_text(json.dumps(tree))
    (tmp_path / "ham.json").write_text(json.dumps(ham))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["build", str(tmp_path / "tree.json"),
                   str(tmp_path / "ham.json"), "--out", str(out)])
    return rc, out.exists()


def test_build_refuses_overflowing_operator(tmp_path, capsys):
    # 1e300 * Q holds 1e600: the dump held Infinity, which is not JSON, and
    # numpy's overflow warning is no part of the refusal
    rc, wrote = build_refusing_overflow(
        tmp_path, {"root": 0, "edges": [[0, 1]]},
        {"operators": {"Q": {"dim": 2, "matrix": [
            [0, 0], [1e300, 0], [1e300, 0], [0, 0]]}},
         "terms": [{"coeff": [1e300, 0], "factors": {"0": "Q", "1": "X"}}]})
    assert rc == EXIT_VALIDATION and not wrote
    assert capsys.readouterr().err == (
        "validation error: site 0: the matrix of operator '1e+300*Q' "
        "overflows to non-finite entries\n")


def test_build_refuses_overflowing_block_sum(tmp_path, capsys):
    # Q and 1.5 * Q share the single site's one block, and 2.5e308 is inf
    rc, wrote = build_refusing_overflow(
        tmp_path, {"root": 0, "edges": []},
        {"operators": {"Q": {"dim": 2, "matrix": [
            [0, 0], [1e308, 0], [1e308, 0], [0, 0]]}},
         "terms": [{"coeff": [1, 0], "factors": {"0": "Q"}},
                   {"coeff": [1.5, 0], "factors": {"0": "Q"}}]})
    assert rc == EXIT_VALIDATION and not wrote
    assert capsys.readouterr().err == (
        "validation error: site 0: the matrices summed into block () "
        "overflow to non-finite entries\n")


Q_MATRIX = [[0, 0], [1, 0.5], [1, -0.5], [0, 0]]


@pytest.mark.parametrize("operator", [
    {"dim": "2", "matrix": Q_MATRIX},
    {"dim": " 2", "matrix": Q_MATRIX},
    {"dim": 2, "matrix": [[True, 0]] + Q_MATRIX[1:]},
    {"dim": 2, "matrix": Q_MATRIX[:3] + [[1, False]]},
], ids=["dim_string", "dim_spaced_string", "entry_true", "entry_false"])
def test_build_refuses_coerced_operator_values(tmp_path, capsys, operator):
    # int() read "2" and " 2" as 2, and complex() read true as 1 and false
    # as 0: these built, exit 0
    rc, wrote = build_refusing_overflow(tmp_path, TREE_JSON, {
        "operators": {"Q": operator}, "terms": [
            {"coeff": [1, 0], "factors": {"1": "Q", "2": "X"}}]})
    assert rc == EXIT_VALIDATION and not wrote
    assert capsys.readouterr().err == (
        "validation error: operator 'Q': needs an integer 'dim' and a "
        "[re, im] 'matrix'\n")


@pytest.mark.parametrize("ham, message", [
    ({"operators": {"Q": {"dim": 2, "matrix": [[10 ** 400, 0]]
                          + Q_MATRIX[1:]}}, "terms": [PAIR_TERM]},
     "operator 'Q': matrix entries must be finite"),
    ({"terms": [PAIR_TERM, {"coeff": [0, -10 ** 400], "factors": {}}]},
     "term 1: 'coeff' [0, -inf] is not finite"),
], ids=["matrix_entry", "coeff"])
def test_build_refuses_integers_no_float_holds(tmp_path, capsys, ham,
                                               message):
    # complex() raised OverflowError, a traceback from the CLI; such an
    # integer is read as the infinity it rounds to, and refused as 1e400 is
    rc, wrote = build_refusing_overflow(tmp_path, TREE_JSON, ham)
    assert rc == EXIT_VALIDATION and not wrote
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_build_refuses_huge_dim_in_a_short_message(files, capsys):
    # the message printed dim ** 2, 801 digits of an 844-character line
    tmp, tree, _ = files
    ham = tmp / "huge.json"
    ham.write_text(json.dumps({
        "operators": {"Q": {"dim": 10 ** 400, "matrix": [[1, 0]]}},
        "terms": [PAIR_TERM]}))
    out = tmp / "o.json"
    assert main(["build", tree, str(ham), "--out", str(out)]) == (
        EXIT_VALIDATION)
    err = capsys.readouterr().err
    assert "'Q'" in err and len(err) < 300, err
    assert not out.exists()


def test_cli_files_are_utf8_whatever_the_locale(files):
    # every file the CLI opens names its encoding: under
    # -X warn_default_encoding an open() without one warns, and the
    # warning is an error here
    tmp, tree, ham = files
    script = (
        "import sys\n"
        "from ttno.cli import main\n"
        "tree, ham, tmp = sys.argv[1:]\n"
        "sys.exit(max(main(argv) for argv in (\n"
        "    ['build', tree, ham, '--out', tmp + '/o.json',\n"
        "     '--report', tmp + '/r.csv', '--verify'],\n"
        "    ['bench', tree, '--terms', '5', '--samples', '2', '--seed', '1',\n"
        "     '--out', tmp + '/d.csv', '--summary', tmp + '/s.csv'],\n"
        "    ['plotdata', tmp + '/d.csv', '--out-prefix', tmp + '/p'])))\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", script, tree, ham, str(tmp)],
        env=env, capture_output=True, text=True, encoding="utf-8",
        timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    for name in ("o.json", "r.csv", "d.csv", "s.csv", "p_hist.dat",
                 "p_rdiff.dat", "p_diag.dat"):
        assert (tmp / name).stat().st_size > 0, name


def test_build_integer_past_the_digit_limit_is_a_parse_error(files, capsys):
    # Python's int() refuses a literal of more than 4,300 digits: json
    # raised that ValueError from the CLI
    tmp, tree, _ = files
    ham = tmp / "long.json"
    ham.write_text(json.dumps({"terms": [PAIR_TERM]}).replace(
        "[1, 0]", f"[{'1' * 5000}, 0]"))
    out = tmp / "o.json"
    assert main(["build", tree, str(ham), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"parse error: {ham}: Exceeds")
    assert not out.exists()


FUZZ_HAM_JSON = {
    "operators": {"Q": {"dim": 2, "matrix": Q_MATRIX}},
    "terms": HAM_JSON["terms"] + [
        {"coeff": [0.5, -0.25], "factors": {"3": "Q", "8": "Z"}}]}

# JSON values of every type: numbers of every range, NaN and Infinity
# among the floats, and strings that int() or a registry would take
JSON_VALUES = st.one_of(
    st.booleans(), st.none(), st.integers(-3, 3), st.floats(),
    st.text("0129 .xX-", max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=1),
    st.sampled_from([2 ** 64, 10 ** 400, -10 ** 400, "2", " 2", "Z", "Q"]))


def _is_number(x) -> bool:
    return type(x) in (int, float)


# what each swapped value must be for the build to be able to succeed
TAKES = {"coeff": _is_number, "matrix": _is_number,
         "dim": lambda x: type(x) is int,
         "key": lambda x: json_key_int(x) is not None,
         "label": lambda x: type(x) is str}


@given(data=st.data())
def check_hamiltonian_swap(tree, ham, out, data):
    doc = json.loads(json.dumps(FUZZ_HAM_JSON))
    terms, q = doc["terms"], doc["operators"]["Q"]
    kind = data.draw(st.sampled_from(sorted(TAKES)))
    value = data.draw(JSON_VALUES)
    term = data.draw(st.sampled_from(terms))
    site = data.draw(st.sampled_from(sorted(term["factors"])))
    if kind == "coeff":
        term["coeff"][data.draw(st.integers(0, 1))] = value
    elif kind == "matrix":
        data.draw(st.sampled_from(q["matrix"]))[
            data.draw(st.integers(0, 1))] = value
    elif kind == "dim":
        q["dim"] = value
    elif kind == "label":
        term["factors"][site] = value
    else:  # the key spells the value
        value = value if isinstance(value, str) else json.dumps(value)
        term["factors"] = {value if k == site else k: label
                           for k, label in term["factors"].items()}
    ham.write_text(json.dumps(doc))
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(
            io.StringIO()):
        warnings.simplefilter("error")
        rc = main(["build", str(tree), str(ham), "--out", str(out)])
    if rc == EXIT_OK:
        assert TAKES[kind](value) and out.exists()
    else:
        assert rc == EXIT_VALIDATION, err.getvalue()
        assert not out.exists()


def test_build_swapped_hamiltonian_value_refused_or_built(files,
                                                          hypothesis_home):
    # one value of the Hamiltonian JSON (a coeff part, a matrix entry, the
    # dim, a factor key or label) swapped for a value of any JSON type:
    # the build exits 0 or 3, and 0 only if the value is of the type the
    # field takes; nothing escapes, not even a warning, and a refused build
    # writes no dump
    tmp, tree, _ = files
    check_hamiltonian_swap(Path(tree), tmp / "fuzz.json", tmp / "out.json")


# the keys a build reads but does not need: a term without "coeff" has
# coefficient 1, one without "factors" is the identity
OPTIONAL_KEYS = {"coeff", "factors"}
REPEAT = "@repeat@"  # stands for the repeated key until the JSON is written
KEY_NAMES = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["coef", "Coeff", "factor", "term", "operator", "dims",
                     " dim", "matrix ", "re", "im", "'", '"', "\\"]))


@given(data=st.data())
def check_hamiltonian_keys(tree, ham, out, data):
    doc = json.loads(json.dumps(FUZZ_HAM_JSON))
    obj = data.draw(st.sampled_from(
        [doc, *doc["terms"], doc["operators"]["Q"]]))
    action = data.draw(st.sampled_from(["remove", "add", "repeat"]))
    if action == "remove":
        key = data.draw(st.sampled_from(sorted(obj)))
        del obj[key]
        text = json.dumps(doc)
    elif action == "add":
        key = data.draw(KEY_NAMES.filter(lambda k: k not in obj))
        obj[key] = data.draw(JSON_VALUES)
        text = json.dumps(doc)
    else:  # the same key again, at any place in the object
        key = data.draw(st.sampled_from(sorted(obj)))
        value = data.draw(st.one_of(st.just(obj[key]), JSON_VALUES))
        items = list(obj.items())
        items.insert(data.draw(st.integers(0, len(items))), (REPEAT, value))
        obj.clear()
        obj.update(items)
        text = json.dumps(doc).replace(json.dumps(REPEAT), json.dumps(key))
    ham.write_text(text, encoding="utf-8")
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(
            io.StringIO()):
        warnings.simplefilter("error")
        rc = main(["build", str(tree), str(ham), "--out", str(out)])
    err = err.getvalue()
    if action == "remove" and key in OPTIONAL_KEYS:
        assert rc == EXIT_OK, err
        assert out.exists()
        return
    assert rc == EXIT_VALIDATION, err
    assert not out.exists()
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if action != "remove":
        assert repr(key) in err, (key, err)


def test_build_hamiltonian_with_a_key_removed_added_or_repeated(
        files, hypothesis_home):
    # one key of the Hamiltonian JSON, at the top level, in a term or in an
    # operator, removed, added or given twice: the build exits 0 only
    # without a key that has a default, else 3 naming an added or repeated
    # key, with no warning, no traceback and no dump
    tmp, tree, _ = files
    check_hamiltonian_keys(Path(tree), tmp / "fuzz.json", tmp / "out.json")


# the tree JSON with all three keys; without "phys_dims" every site has
# dimension 2, as here
FUZZ_TREE_JSON = {**TREE_JSON, "phys_dims": {"8": 2}}
TREE_KEYS = ("root", "edges", "phys_dims")


@given(data=st.data())
def check_tree_keys(tree, ham, out, data):
    doc = json.loads(json.dumps(FUZZ_TREE_JSON))
    action = data.draw(st.sampled_from(["remove", "add", "repeat"]))
    if action == "remove":
        key = data.draw(st.sampled_from(TREE_KEYS))
        del doc[key]
        text = json.dumps(doc)
    elif action == "add":
        key = data.draw(KEY_NAMES.filter(lambda k: k not in doc))
        doc[key] = data.draw(JSON_VALUES)
        text = json.dumps(doc)
    else:  # the same key again, at any place in the object
        key = data.draw(st.sampled_from(TREE_KEYS))
        value = data.draw(st.one_of(st.just(doc[key]), JSON_VALUES))
        items = list(doc.items())
        items.insert(data.draw(st.integers(0, len(items))), (REPEAT, value))
        doc = dict(items)
        text = json.dumps(doc).replace(json.dumps(REPEAT), json.dumps(key))
    tree.write_text(text, encoding="utf-8")
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(
            io.StringIO()):
        warnings.simplefilter("error")
        rc = main(["build", str(tree), str(ham), "--out", str(out)])
    err = err.getvalue()
    if action == "remove" and key == "phys_dims":
        assert rc == EXIT_OK, err
        assert out.exists()
        return
    assert rc == EXIT_VALIDATION, err
    assert not out.exists()
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert repr(key) in err, (key, err)
    if action == "repeat":
        assert str(tree) in err


def test_build_tree_with_a_key_removed_added_or_repeated(files,
                                                         hypothesis_home):
    # one key of the tree JSON removed, added or given twice: the build
    # exits 0 only without "phys_dims", which has a default, else 3 naming
    # the key (and the file, for a repeated key), with no warning, no
    # traceback and no dump
    tmp, _, ham = files
    check_tree_keys(tmp / "fuzz_tree.json", Path(ham), tmp / "out.json")


def test_build_random40_without_dense_tensors(tmp_path):
    # the dense tensor at site 3 alone would take 48 GiB
    rng = np.random.default_rng(1)
    edges = random_tree_edges(rng, 40)
    tree = TreeTopology(edges, pick_nonleaf_root(edges, 40))
    h = random_hamiltonian(tree, 1200, ("X", "Y", "Z"), 4, seed=[1, 1])
    ham = {"terms": [{"coeff": [t.coefficient.real, t.coefficient.imag],
                      "factors": {str(s): op.label
                                  for s, op in t.factors.items()}}
                     for t in h.terms]}
    (tmp_path / "tree.json").write_text(json.dumps(tree.to_json_dict()))
    (tmp_path / "ham.json").write_text(json.dumps(ham))
    out = tmp_path / "out.json"
    assert main(["build", str(tmp_path / "tree.json"),
                 str(tmp_path / "ham.json"), "--out", str(out)]) == EXIT_OK
    back = read_ttno(str(out))
    assert dense_element_count(back) > 3 * 10 ** 9
    assert (out.stat().st_size
            <= 64 * element_count(back) + 256 * len(tree.nodes))


def test_verification_rejects_any_corruption(files):
    tmp, tree_path, ham_path = files
    out = str(tmp / "out.json")
    assert main(["build", tree_path, ham_path, "--out", out]) == EXIT_OK

    tree = TreeTopology.from_json_dict(TREE_JSON)
    h, registry = load_hamiltonian(tree, HAM_JSON)
    assert verify_dump_against(out, h, registry)

    ttno = read_ttno(out)
    corrupted = str(tmp / "bad.json")
    n_mutations = 0
    for s, t in ttno.tensors.items():
        flat = t.blocks.reshape(-1)
        for idx in np.flatnonzero(flat != 0):
            original = flat[idx]
            flat[idx] = original + 1.0
            write_ttno(ttno, corrupted)
            assert not verify_dump_against(corrupted, h, registry), (s, idx)
            flat[idx] = original
            n_mutations += 1
    assert n_mutations > 0


@pytest.mark.parametrize("command", ["build --report", "bench --summary",
                                     "oqs --report"])
def test_unwritable_output_leaves_no_output(files, capsys, command):
    # the first output path is writable, the second is not; an existing
    # file at the first keeps its bytes
    tmp, tree, ham = files
    missing = str(tmp / "missing" / "out")
    first = tmp / "first.out"
    argv = {"build --report": ["build", tree, ham, "--out", str(first),
                               "--report", missing],
            "bench --summary": ["bench", tree, "--terms", "5", "--samples",
                                "2", "--seed", "3", "--out", str(first),
                                "--summary", missing],
            "oqs --report": ["oqs", "--topology", "star", "--spins", "2",
                             "--baths", "1", "--out", str(first),
                             "--report", missing],
            }[command]
    before = sorted(tmp.iterdir())
    assert main(argv) == EXIT_PARSE
    assert missing in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before
    first.write_text("kept")
    assert main(argv) == EXIT_PARSE
    assert first.read_text() == "kept"


@pytest.mark.parametrize("summary", [False, True])
def test_bench_refuses_no_samples(files, capsys, summary):
    tmp, tree, _ = files
    argv = ["bench", tree, "--samples", "0", "--seed", "1",
            "--out", str(tmp / "d.csv")]
    if summary:
        argv += ["--summary", str(tmp / "s.csv")]
    before = sorted(tmp.iterdir())
    assert main(argv) == EXIT_VALIDATION
    assert "--samples 0 must be positive" in capsys.readouterr().err
    assert sorted(tmp.iterdir()) == before


def test_bench_deterministic_bytes(files):
    tmp, tree, _ = files
    args = ["bench", tree, "--terms", "5,10", "--samples", "6",
            "--seed", "99", "--out", str(tmp / "d.csv"),
            "--summary", str(tmp / "s.csv")]
    assert main(args) == EXIT_OK
    first = (tmp / "d.csv").read_bytes(), (tmp / "s.csv").read_bytes()
    assert main(args) == EXIT_OK
    second = (tmp / "d.csv").read_bytes(), (tmp / "s.csv").read_bytes()
    assert first == second
    header = first[0].decode().splitlines()[0]
    assert header == "seed,n_terms,edge,alg_dim,opt_dim"
    assert first[1].decode().splitlines()[0] == "n_terms,r_diff,n_samples"


def test_bench_refuses_seed_zero(files):
    tmp, tree, _ = files
    rc = main(["bench", tree, "--samples", "2", "--seed", "0",
               "--out", str(tmp / "d.csv")])
    assert rc == EXIT_VALIDATION


@pytest.mark.parametrize("flag, value", [("--terms", "x"),
                                         ("--seed", "-3")])
def test_bench_refuses_malformed_flag(files, capsys, flag, value):
    tmp, tree, _ = files
    argv = ["bench", tree, "--samples", "2", "--seed", "1",
            "--out", str(tmp / "d.csv"), flag, value]
    assert main(argv) == EXIT_VALIDATION
    assert f"{flag} {value}" in capsys.readouterr().err


def test_bench_refuses_empty_terms(files, capsys):
    tmp, tree, _ = files
    rc = main(["bench", tree, "--terms", "", "--samples", "2", "--seed", "1",
               "--out", str(tmp / "d.csv")])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == ("validation error: --terms must list "
                                       "at least one term count\n")
    assert not (tmp / "d.csv").exists()


def test_bench_refuses_repeated_label(files):
    # a separate process under a timeout, so that a draw that never ends
    # fails the test instead of hanging the suite
    tmp, tree, _ = files
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ttno.cli", "bench", tree, "--terms", "300",
         "--samples", "1", "--seed", "1", "--labels", "X,X",
         "--out", str(tmp / "d.csv")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_VALIDATION
    assert "repeat 'X'" in proc.stderr
    assert not (tmp / "d.csv").exists()


def test_bench_refuses_repeated_term_count(files, capsys):
    # results are keyed by term count: a repeat ran once
    tmp, tree, _ = files
    rc = main(["bench", tree, "--terms", "3,5,3", "--samples", "2",
               "--seed", "1", "--out", str(tmp / "d.csv")])
    assert rc == EXIT_VALIDATION
    assert "repeat 3" in capsys.readouterr().err
    assert not (tmp / "d.csv").exists()


def test_bench_beyond_dense_cap(tmp_path, monkeypatch):
    # 14 qubits: total dimension 16384 exceeds the default TTNO_DENSE_CAP,
    # which bounds only dense builds, not the rank oracle
    monkeypatch.delenv("TTNO_DENSE_CAP", raising=False)
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"root": 1, "edges": [[i, i + 1] for i in range(13)]}))
    rc = main(["bench", str(big), "--terms", "5,20", "--samples", "2",
               "--seed", "2", "--out", str(tmp_path / "d.csv")])
    assert rc == EXIT_OK
    rows = (tmp_path / "d.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 2 * 13
    for row in rows:
        alg, opt = (int(x) for x in row.split(",")[3:5])
        assert 1 <= opt <= alg


def test_bench_root_at_leaf_flag(files):
    tmp, tree, _ = files
    base = ["--terms", "20", "--samples", "30", "--seed", "5"]
    assert main(["bench", tree, *base, "--out", str(tmp / "a.csv")]) == EXIT_OK
    assert main(["bench", tree, *base, "--root-at-leaf",
                 "--out", str(tmp / "b.csv")]) == EXIT_OK

    def excesses(path):
        rows = (tmp / path).read_text().splitlines()[1:]
        return [int(r.split(",")[3]) - int(r.split(",")[4]) for r in rows]

    a, b = excesses("a.csv"), excesses("b.csv")
    assert sum(b) > sum(a)  # heavier excess tail with a leaf root


SINGLE_SITE = {"root": 0, "edges": []}


def test_bench_root_at_leaf_keeps_single_site(tmp_path):
    # no site of a single-site tree has exactly one neighbour
    tree = tmp_path / "one.json"
    tree.write_text(json.dumps(SINGLE_SITE))
    base = ["bench", str(tree), "--terms", "1", "--samples", "1",
            "--seed", "1"]
    assert main([*base, "--out", str(tmp_path / "a.csv")]) == EXIT_OK
    assert main([*base, "--root-at-leaf",
                 "--out", str(tmp_path / "b.csv")]) == EXIT_OK
    assert ((tmp_path / "b.csv").read_bytes()
            == (tmp_path / "a.csv").read_bytes())


def test_bench_summary_refuses_single_site(tmp_path, capsys):
    # r_diff averages over bonds, and a single site has none
    tree = tmp_path / "one.json"
    tree.write_text(json.dumps(SINGLE_SITE))
    rc = main(["bench", str(tree), "--terms", "1", "--samples", "1",
               "--seed", "1", "--out", str(tmp_path / "d.csv"),
               "--summary", str(tmp_path / "s.csv")])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {tree}: ")
    assert "without bonds" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.json"]


def test_cayley_sweep_chain(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = main(["cayley", "--degree", "2", "--depth", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[0] == "degree,depth,chi,closed_form,brute_force"
    for row in rows[1:6]:
        _, _, chi, cf, bf = row.split(",")
        assert int(cf) == int(bf) == int(chi) + 2


def test_cayley_all_to_all(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["cayley", "--degree", "3", "--depth", "3", "--all-to-all",
               "--out", str(out)])
    assert rc == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert row[3] == row[4]


def test_cayley_sweep_builds_the_tree_once(tmp_path, monkeypatch):
    # the brute-force column counted a newly built tree for every chi
    builds = []
    build = closedform.cayley_tree
    monkeypatch.setattr(closedform, "cayley_tree",
                        lambda spec: builds.append(spec) or build(spec))
    out = tmp_path / "c.csv"
    rc = main(["cayley", "--degree", "3", "--depth", "3", "--out", str(out)])
    assert rc == EXIT_OK
    assert builds == [closedform.CayleyTreeSpec(3, 3)]
    assert len(out.read_text().splitlines()) == 1 + 5


@pytest.mark.parametrize("depth, bad_chi", [(3, 2), (3, 5)],
                         ids=["within_depth", "beyond_depth"])
def test_cayley_disagreement_is_a_verification_mismatch(
        tmp_path, monkeypatch, capsys, depth, bad_chi):
    # a disagreement exited 3 with no message, and 0 beyond the depth
    spec = closedform.CayleyTreeSpec(3, depth)
    right = closedform.brute_force_root_bond
    monkeypatch.setattr(closedform, "brute_force_root_bond",
                        lambda spec, chi: right(spec, chi) + (chi == bad_chi))
    out = tmp_path / "c.csv"
    rc = main(["cayley", "--degree", "3", "--depth", str(depth),
               "--out", str(out)])
    assert rc == EXIT_VERIFY
    cf = closedform.fixed_range_bond_bound(spec, bad_chi)
    assert capsys.readouterr().err == (
        f"verification FAILED: degree 3, depth {depth}, chi {bad_chi}: "
        f"closed form {cf} != brute force {cf + 1}\n")
    rows = out.read_text().splitlines()
    assert rows[bad_chi] == f"3,{depth},{bad_chi},{cf},{cf + 1}"
    assert len(rows) == 2 * depth


def test_cayley_all_to_all_disagreement(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(closedform, "brute_force_all_to_all_bond",
                        lambda spec: 1)
    out = tmp_path / "c.csv"
    rc = main(["cayley", "--degree", "2", "--depth", "2", "--all-to-all",
               "--out", str(out)])
    assert rc == EXIT_VERIFY
    assert capsys.readouterr().err == (
        "verification FAILED: degree 2, depth 2, chi all: closed form 7 != "
        "brute force 1\n")
    assert out.read_text() == ("degree,depth,chi,closed_form,brute_force\n"
                               "2,2,all,7,1\n")


def test_cayley_refuses_range_with_all_to_all(capsys):
    # --all-to-all used to win silently, printing only the ``all`` row
    with pytest.raises(SystemExit) as exc:
        main(["cayley", "--degree", "3", "--depth", "2", "--range", "2",
              "--all-to-all"])
    assert exc.value.code == EXIT_PARSE
    assert ("argument --all-to-all: not allowed with argument --range"
            in capsys.readouterr().err)


@pytest.mark.parametrize("to", [[], ["--out", "-"]],
                         ids=["default", "dash"])
def test_cayley_prints_csv_to_stdout(tmp_path, capsys, to):
    argv = ["cayley", "--degree", "3", "--depth", "3"]
    out = tmp_path / "c.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main([*argv, *to]) == EXIT_OK
    printed = capsys.readouterr()
    assert printed.err == ""
    assert printed.out.encode("utf-8") == out.read_bytes()


@pytest.mark.parametrize("flags", [[], ["--all-to-all"]],
                         ids=["sweep", "all_to_all"])
def test_cayley_degree_8_depth_5(tmp_path, flags):
    # 22,409 sites, ~2.5e8 site pairs: counted pair by pair, one call took
    # minutes
    out = tmp_path / "c.csv"
    assert main(["cayley", "--degree", "8", "--depth", "5", *flags,
                 "--out", str(out)]) == EXIT_OK
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == (
        ["all"] if flags else [str(chi) for chi in range(1, 10)])
    assert all(row[3] == row[4] for row in rows)


def test_cayley_invalid_degree():
    assert main(["cayley", "--degree", "1", "--depth", "2"]) == EXIT_VALIDATION


def test_oqs_subcommand(tmp_path):
    out = tmp_path / "oqs.json"
    report = tmp_path / "r.csv"
    rc = main(["oqs", "--topology", "star", "--spins", "2", "--baths", "3",
               "--out", str(out), "--report", str(report)])
    assert rc == EXIT_OK
    ttno = read_ttno(str(out))
    assert len(ttno.tree.nodes) == 8
    text = report.read_text()
    assert "element_count" in text and "dense_element_count" in text


@pytest.mark.parametrize("flag, value", [("--omega", "nan"),
                                         ("--g-re", "inf")])
def test_oqs_refuses_non_finite_flag(capsys, flag, value):
    argv = ["oqs", "--topology", "star", "--spins", "2", "--baths", "1",
            flag, value]
    assert main(argv) == EXIT_VALIDATION
    assert f"{flag} {value} is not finite" in capsys.readouterr().err


def test_plotdata(files):
    tmp, tree, _ = files
    detail = str(tmp / "d.csv")
    main(["bench", tree, "--terms", "10,30", "--samples", "10",
          "--seed", "17", "--out", detail])
    rc = main(["plotdata", detail, "--out-prefix", str(tmp / "p")])
    assert rc == EXIT_OK
    hist = (tmp / "p_hist.dat").read_text().splitlines()
    assert hist[0] == "alg_dim opt_dim count"
    total = sum(int(line.split()[2]) for line in hist[1:])
    assert total == 2 * 10 * 7  # term counts x samples x edges
    rdiff = (tmp / "p_rdiff.dat").read_text().splitlines()
    assert rdiff[0] == "n_terms r_diff"
    assert len(rdiff) == 3
    diag = (tmp / "p_diag.dat").read_text().splitlines()
    assert all(len(set(line.split())) == 1 for line in diag[1:])
    # densest histogram cell sits on the found == optimal diagonal
    best = max(hist[1:], key=lambda line: int(line.split()[2]))
    assert best.split()[0] == best.split()[1]


def test_plotdata_diagonal_when_perfect(tmp_path):
    detail = tmp_path / "d.csv"
    detail.write_text("seed,n_terms,edge,alg_dim,opt_dim\n"
                      "1,5,0-1,2,2\n1,5,1-2,3,3\n")
    rc = main(["plotdata", str(detail), "--out-prefix", str(tmp_path / "p")])
    assert rc == EXIT_OK
    hist = (tmp_path / "p_hist.dat").read_text().splitlines()[1:]
    assert all(line.split()[0] == line.split()[1] for line in hist)


def test_plotdata_empty_csv(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    assert main(["plotdata", str(empty),
                 "--out-prefix", str(tmp_path / "p")]) == EXIT_PARSE
    header_only = tmp_path / "h.csv"
    header_only.write_text("seed,n_terms,edge,alg_dim,opt_dim\n")
    assert main(["plotdata", str(header_only),
                 "--out-prefix", str(tmp_path / "p")]) == EXIT_PARSE


@pytest.mark.parametrize("text, message", [
    ("seed,n_terms,edge,alg_dim,opt_dim\n", "empty or header-only CSV"),
    ("seed,n_terms,edge,alg_dim\n1,5,0-1,2\n",
     "need columns ['alg_dim', 'n_terms', 'opt_dim']"),
    ("seed,n_terms,edge,alg_dim,opt_dim\n1,5,0-1,2,2\n1,5,1-2,x,3\n",
     "bad row {'seed': '1', 'n_terms': '5', 'edge': '1-2', 'alg_dim': 'x', "
     "'opt_dim': '3'}"),
], ids=["header_only", "missing_column", "bad_row"])
def test_plotdata_refuses_malformed_csv(tmp_path, capsys, text, message):
    detail = tmp_path / "d.csv"
    detail.write_text(text)
    rc = main(["plotdata", str(detail), "--out-prefix", str(tmp_path / "p")])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == f"parse error: {detail}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


def test_user_label_colliding_with_derived_label(tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"root": 2, "edges": [[1, 2], [2, 3]]}))
    ham = tmp_path / "ham.json"
    ham_json = {
        "operators": {"2*X": {"dim": 2,
                              "matrix": [[1, 0], [0, 0], [0, 0], [-1, 0]]}},
        "terms": [{"coeff": [2, 0], "factors": {"1": "X", "2": "X"}},
                  {"coeff": [1, 0], "factors": {"1": "2*X", "3": "X"}}],
    }
    ham.write_text(json.dumps(ham_json))
    out = str(tmp_path / "o.json")
    assert main(["build", str(tree), str(ham), "--out", out]) == EXIT_OK
    h, registry = load_hamiltonian(
        TreeTopology.from_json_dict(json.loads(tree.read_text())), ham_json)
    assert verify_dump_against(out, h, registry)
    assert main(["build", str(tree), str(ham), "--out", out,
                 "--verify"]) == EXIT_OK


def test_custom_operator_matrices_via_json(tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"root": 0, "edges": [[0, 1]]}))
    ham = tmp_path / "ham.json"
    ham.write_text(json.dumps({
        "operators": {"Q": {"dim": 2,
                            "matrix": [[0, 0], [2, 0], [0, 0], [0, 0]]}},
        "terms": [{"coeff": [1, 0], "factors": {"0": "Q", "1": "Q"}}],
    }))
    out = tmp_path / "o.json"
    rc = main(["build", str(tree), str(ham), "--out", str(out), "--verify"])
    assert rc == EXIT_OK
