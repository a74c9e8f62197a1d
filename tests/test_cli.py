import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expanderlab import cli, nbwalk, params, product, spectral
from expanderlab.bigraph import VertexSet, write_graph
from expanderlab.gadget import sample_biregular
from expanderlab.spectral import incidence_graph, write_regular_graph

from graphs import (
    c4,
    complete_graph,
    cycle,
    double_edge,
    hub,
    k21,
    k32,
    petersen,
    swap_left_endpoints,
)
from oracles import count_nb_paths_bruteforce


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, g in [("c4", c4()), ("c6", cycle(3)), ("k32", k32()), ("k21", k21()),
                    ("double", double_edge())]:
        p = tmp_path / f"{name}.bg"
        write_graph(g, p)
        paths[name] = str(p)
    pg = tmp_path / "petersen.g"
    write_regular_graph(petersen(), pg)
    paths["petersen"] = str(pg)
    paths["dir"] = tmp_path
    return paths


def test_spectrum_command(capsys, files):
    code, payload = run_cli(capsys, "spectrum", "--in", files["k32"])
    assert code == 0
    assert payload["ramanujan"] is True
    assert payload["c"] == 2 and payload["d"] == 3


def test_spectrum_missing_file(capsys, tmp_path):
    code, payload = run_cli(capsys, "spectrum", "--in", str(tmp_path / "nope.bg"))
    assert code == cli.EXIT_IO
    assert payload["error"]["type"] == "FileNotFoundError"


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.bg"
    bad.write_text("BIGRAPH v2\nnl=1 nr=1\n")
    code, payload = run_cli(capsys, "spectrum", "--in", str(bad))
    assert code == cli.EXIT_PARSE
    assert payload["error"]["type"] == "MalformedHeaderError"


@pytest.mark.parametrize("command,name,text", [
    ("spectrum", "f.bg", b"BIGRAPH v1\nnl=2 nr=1\n0 0\n1 \xc2\xb2\n"),
    ("incidence", "f.g", b"GRAPH v1\nn=3 d=2\n0 1\n1 2\n2 \xc2\xb2\n"),
], ids=["spectrum", "incidence"])
def test_non_ascii_graph_file_is_a_parse_error(capsys, tmp_path, command, name, text):
    path = tmp_path / name
    path.write_bytes(text)
    code, payload = run_cli(capsys, command, "--in", str(path))
    assert code == cli.EXIT_PARSE
    assert payload["error"]["type"] == "GraphFormatError"


def test_precondition_exit_code(capsys, tmp_path):
    bad = tmp_path / "nonbireg.bg"
    bad.write_text("BIGRAPH v1\nnl=2 nr=2\n0 0\n0 1\n1 0\n")
    code, payload = run_cli(capsys, "spectrum", "--in", str(bad))
    assert code == cli.EXIT_PRECONDITION


def test_incidence_command(capsys, files, tmp_path):
    out = tmp_path / "inc.bg"
    code, payload = run_cli(capsys, "incidence", "--in", files["petersen"], "--out", str(out))
    assert code == 0
    assert payload["n_left"] == 15 and payload["n_right"] == 10
    assert payload["identity"] == {"d": 3, "mismatched_entries": 0, "ok": True}
    assert payload["spectrum"]["ramanujan"] is True
    assert out.exists()


def test_incidence_refuses_before_the_identity_check(capsys, files, monkeypatch):
    # Petersen's incidence graph is 15 x 10: over a dense limit of 10, the
    # spectrum's size check exits 5 before the identity check runs
    def identity_check(g):
        raise AssertionError("the identity check ran on a refused graph")

    monkeypatch.setattr(spectral, "MAX_DENSE_DIM", 10)
    monkeypatch.setattr(spectral, "incidence_identity_check", identity_check)
    code, payload = run_cli(capsys, "incidence", "--in", files["petersen"])
    assert code == cli.EXIT_PRECONDITION
    assert "too large" in payload["error"]["message"]


def test_nbops_command(capsys, files):
    code, payload = run_cli(capsys, "nbops", "--in", files["c4"], "--max-len", "4")
    assert code == 0
    assert payload["operators"]["LL_2"] == [[0, 2], [2, 0]]


def test_nbcount_command_match(capsys, files):
    code, payload = run_cli(
        capsys, "nbcount", "--in", files["c4"], "--set", "0,1", "--len", "2"
    )
    assert code == 0
    assert payload == {"set": [0, 1], "len": 2, "mode": "endpoints-in-S", "count": 4}


def test_nbcount_all_in_s_on_the_8_cycle(capsys, tmp_path):
    # two NB paths of length 4 stay on left vertices 0, 1, 2: 0-1-2 and 2-1-0
    path = tmp_path / "c8.bg"
    write_graph(cycle(4), path)
    code, payload = run_cli(capsys, "nbcount", "--in", str(path), "--set", "0,1,2",
                            "--len", "4", "--mode", "all-in-S")
    assert code == cli.EXIT_OK
    assert payload == {"set": [0, 1, 2], "len": 4, "mode": "all-in-S", "count": 2}


@pytest.mark.parametrize("mode", ["endpoints-in-S", "all-in-S"])
def test_nbcount_past_200_edges_equals_the_oracle(capsys, tmp_path, mode):
    g = incidence_graph(complete_graph(21))
    assert len(g.edges) == 420
    path = tmp_path / "k21inc.bg"
    write_graph(g, path)
    s = VertexSet.left([0, 1, 2, 19, 20, 40])
    for length in (4, 5):
        code, payload = run_cli(capsys, "nbcount", "--in", str(path), "--set", "0,1,2,19,20,40",
                                "--len", str(length), "--mode", mode)
        assert code == cli.EXIT_OK
        assert payload["count"] == count_nb_paths_bruteforce(g, s, length, mode) > 0


def test_poly_command(capsys):
    code, payload = run_cli(capsys, "poly", "--c", "2", "--d", "3", "--n", "2")
    assert code == 0
    assert payload["coefficients"] == ["2", "-5", "1"]
    # c = d is allowed: the recurrence does not need the two-sided band
    code, payload = run_cli(capsys, "poly", "--c", "3", "--d", "3", "--n", "2")
    assert code == 0
    assert payload["coefficients"] == ["6", "-7", "1"]


def test_poly_past_the_degree_cap_exits_7(capsys):
    # refused before any coefficient is built: --n 3000 ran for 53 s
    for n in (nbwalk.MAX_POLY_DEGREE + 1, 3000):
        code, payload = run_cli(capsys, "poly", "--c", "2", "--d", "3", "--n", str(n))
        assert code == cli.EXIT_BUDGET
        assert payload["error"]["type"] == "EnumerationBudgetError"


def test_boundcheck_lemma9(capsys, files):
    code, payload = run_cli(
        capsys, "boundcheck", "lemma9", "--in", files["c4"], "--ell-max", "4"
    )
    assert code == 0
    assert payload["ok"] is True


def test_boundcheck_lemma6(capsys):
    code, payload = run_cli(
        capsys, "boundcheck", "lemma6", "--c", "2", "--d", "3",
        "--ell", "14", "--samples", "500",
    )
    assert code == 0
    assert payload["asserted_violations"] == 0


def test_boundcheck_lemma8(capsys, files):
    code, payload = run_cli(
        capsys, "boundcheck", "lemma8", "--in", files["k32"],
        "--set", "0", "--ell", "1",
    )
    assert code == 0
    assert payload["ok"] is True


def test_gadget_sample_and_verify(capsys, tmp_path):
    out = tmp_path / "g.bg"
    code, payload = run_cli(
        capsys, "--seed", "5", "gadget", "sample", "--L", "8", "--R", "4", "--c", "2", "--d", "4",
        "--out", str(out),
    )
    assert code == 0
    assert out.exists()
    code, payload = run_cli(capsys, "gadget", "verify", "--in", str(out), "--k", "0")
    assert code == 0
    assert payload["verified_k"] == 0


def test_seed_before_subcommand_reaches_gadget_sample(capsys, tmp_path):
    out, want = tmp_path / "out.bg", tmp_path / "want.bg"
    argv = ["--L", "12", "--R", "8", "--c", "4", "--d", "6", "--out", str(out)]
    for seed in (5, 6):
        code, payload = run_cli(capsys, "--seed", str(seed), "gadget", "sample", *argv)
        assert code == 0
        assert payload["params"]["seed"] == seed
        write_graph(sample_biregular(12, 8, 4, 6, seed=seed), want)
        assert out.read_bytes() == want.read_bytes()


def test_budget_before_subcommand_reaches_gadget_verify(capsys, files):
    # K32: size 1 takes the whole budget of 3 subsets, size 2 would exceed it
    code, payload = run_cli(capsys, "--budget", "3", "gadget", "verify",
                            "--in", files["k32"], "--k", "3")
    assert code == cli.EXIT_BUDGET
    assert payload["budget_exhausted"] is True and payload["verified_k"] == 1
    # with room to finish, the search refutes size 2 instead: every pair is bad
    code, payload = run_cli(capsys, "--budget", "100", "gadget", "verify",
                            "--in", files["k32"], "--k", "3")
    assert code == cli.EXIT_VERIFICATION
    assert payload["budget_exhausted"] is False and payload["witness"] == [0, 1]


def test_gadget_sample_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.bg", tmp_path / "b.bg"
    for out in (a, b):
        run_cli(capsys, "--seed", "9", "gadget", "sample", "--L", "12", "--R", "8",
                "--c", "4", "--d", "6", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_gadget_verify_witness_exit(capsys, files):
    # K21 pairs share the single right vertex: witness at size 2
    code, payload = run_cli(capsys, "gadget", "verify", "--in", files["k21"], "--k", "2")
    assert code == cli.EXIT_VERIFICATION
    assert payload["witness"] == [0, 1]


def _strip_wall_time(value):
    if isinstance(value, dict):
        return {k: _strip_wall_time(v) for k, v in value.items() if k != "wall_time"}
    if isinstance(value, list):
        return [_strip_wall_time(v) for v in value]
    return value


def test_json_determinism_excluding_wall_time(capsys, files):
    outputs = []
    for _ in range(2):
        code, payload = run_cli(capsys, "gadget", "verify", "--in", files["k21"], "--k", "1")
        assert code == 0
        outputs.append(json.dumps(_strip_wall_time(payload), sort_keys=True))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ("qhat", "--c0", "35", "--alpha", "2"),
    ("boundcheck", "lemma6", "--c", "2", "--d", "3", "--ell", "14", "--samples", "500"),
])
def test_screened_commands_byte_determinism(capsys, argv):
    outputs = []
    for _ in range(2):
        assert cli.main(list(argv)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_spectrum_byte_determinism(capsys, files):
    first = run_cli(capsys, "spectrum", "--in", files["k32"])
    second = run_cli(capsys, "spectrum", "--in", files["k32"])
    assert first == second


def test_product_command(capsys, files, tmp_path):
    out = tmp_path / "prod.bg"
    pcm = tmp_path / "prod.pcm"
    code, payload = run_cli(
        capsys, "product", "--big", files["c4"], "--gadget", files["k21"],
        "--out", str(out), "--export-pcm", str(pcm),
    )
    assert code == 0
    assert payload["left_degree"] == 2 and payload["right_degree"] == 2
    assert out.exists() and pcm.exists()


def test_qhat_command(capsys):
    code, payload = run_cli(capsys, "qhat", "--c0", "35", "--alpha", "2")
    assert code == 0
    assert payload["q_hat"] == 1492
    assert payload["q_hat_by_convention"] == {
        "all-integers/last-fail": 1491, "all-integers/first-hold": 1492,
        "prime-powers-only/last-fail": 1489, "prime-powers-only/first-hold": 1493}
    assert payload["precision"] == params.DEFAULT_PRECISION
    assert "interpretation" not in payload and "boundary" not in payload
    # a rational alpha that is not > 1 is the library's precondition, not a flag error
    code, payload = run_cli(capsys, "qhat", "--c0", "35", "--alpha", "1/2")
    assert code == cli.EXIT_PRECONDITION
    assert payload["error"]["message"] == "need alpha > 1"


def test_constants_command(capsys):
    code, payload = run_cli(capsys, "constants", "--c", "2", "--d", "3", "--eps", "0.5")
    assert code == 0
    assert payload["ell"] == 8


def test_bounds_command(capsys):
    code, payload = run_cli(capsys, "bounds", "--c", "2", "--d", "3", "--eps", "0")
    assert code == 0
    assert payload["dominance"] is True


def test_pipeline_success(capsys, files, tmp_path):
    out = tmp_path / "pipe.bg"
    code, payload = run_cli(
        capsys, "pipeline", "--big", files["c6"], "--gadget", files["k21"],
        "--audit-trials", "20", "--out", str(out),
    )
    assert code == 0
    assert payload["passed"] is True
    stages = {s["stage"] for s in payload["stages"]}
    assert stages == {"spectral", "gadget", "product", "audit"}
    audit = payload["stages"][-1]
    assert audit["failures"] == 0 and audit["conclusive"] > 0


def test_pipeline_port_mismatch(capsys, files):
    code, payload = run_cli(
        capsys, "pipeline", "--big", files["k32"], "--gadget", files["k21"]
    )
    assert code == cli.EXIT_STAGE_PRODUCT
    assert "port-count mismatch" in payload["stages"][-1]["reason"]
    # a sampled gadget with 2 left vertices cannot serve K32's 3 ports either
    code, payload = run_cli(
        capsys, "pipeline", "--big", files["k32"], "--gadget-params", "2,1,1,2"
    )
    assert code == cli.EXIT_STAGE_PRODUCT
    assert payload["stages"][-1]["reason"] == "port-count mismatch: gadget left 2 != d 3"


@pytest.mark.parametrize("value", ["1,2", "a,b,c,d", "2,-1,1,2", "2,1,0,2", "0,1,1,2",
                                   "2,1,1,2,3", "2,1,1,+2"])
def test_pipeline_gadget_params_flag_error(capsys, files, value):
    # rejected while parsing flags, before the spectral stage runs
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", "--big", files["c6"], "--gadget-params", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--gadget-params" in captured.err


@pytest.mark.parametrize("value", ["2,2,1,1", "2,3,3,2"])
def test_pipeline_gadget_params_l_not_above_r_is_a_precondition(capsys, files, value):
    # four values >= 1 parse; L > R is the gadget's own precondition
    code, payload = run_cli(capsys, "pipeline", "--big", files["c6"], "--gadget-params", value)
    assert code == cli.EXIT_PRECONDITION
    assert payload["error"]["message"] == "need L > R >= 1"


def test_pipeline_audit_is_byte_identical_past_one_block(capsys, files):
    argv = ["--seed", "3", "pipeline", "--big", files["c6"], "--gadget", files["k21"],
            "--audit-trials", str(product.AUDIT_BLOCK + 6)]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    audit = json.loads(outputs[0])["stages"][-1]
    assert audit == {"stage": "audit", "ok": True, "trials": product.AUDIT_BLOCK + 6,
                     "conclusive": product.AUDIT_BLOCK + 6, "inconclusive": 0, "failures": 0}


def test_pipeline_audit_failures_exit_13(capsys, files, monkeypatch):
    # a routed product with two edges' left endpoints swapped: the audit finds
    # sets whose inherited unique neighbour is not one in the product
    routed_product = product.routed_product

    def broken(big, small):
        rp = routed_product(big, small)
        (u0, v0), *rest = rp.product.edges
        b = next(i for i, (u, v) in enumerate(rest, 1) if u != u0 and v != v0)
        return dataclasses.replace(rp, product=swap_left_endpoints(rp.product, 0, b))

    monkeypatch.setattr(product, "routed_product", broken)
    code, payload = run_cli(capsys, "pipeline", "--big", files["c6"], "--gadget", files["k21"],
                            "--audit-trials", "50")
    assert code == cli.EXIT_STAGE_AUDIT
    audit = payload["stages"][-1]
    assert payload["passed"] is False and audit["ok"] is False
    assert audit["failures"] > 0 and audit["trials"] == 50


@pytest.mark.parametrize("trials", [1, 50, product.AUDIT_BLOCK + 1])
def test_pipeline_audit_without_conclusive_trials_exits_13(capsys, files, trials):
    # the doubled edge passes the spectral stage (c = d = 2) but every set
    # {0} has 2 ports at its one right vertex, more than k = 1
    code, payload = run_cli(capsys, "pipeline", "--big", files["double"], "--gadget", files["k21"],
                            "--k", "1", "--audit-trials", str(trials))
    assert code == cli.EXIT_STAGE_AUDIT
    assert payload["passed"] is False
    assert payload["stages"][-1] == {"stage": "audit", "ok": False, "trials": trials,
                                     "conclusive": 0, "inconclusive": trials, "failures": 0}


@pytest.mark.parametrize("flag", ["--k", "--retries", "--audit-trials"])
def test_pipeline_counts_must_be_positive(capsys, files, flag):
    # rejected while parsing flags, before any stage runs
    for value in ("0", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pipeline", "--big", files["c6"], "--gadget-params", "2,1,1,2",
                      flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


@pytest.mark.parametrize("flag,argv", [
    ("--budget", ["--budget", "-1", "gadget", "verify", "--k", "3"]),
    ("--budget", ["--budget", "x", "gadget", "verify", "--k", "3"]),
    *(("--tolerance", ["--tolerance", value, "spectrum"])
      for value in ("nan", "inf", "-1", "0", "x")),
    *(("--precision", ["--precision", value, "spectrum"]) for value in ("14", "0", "-1", "x")),
    ("--max-len", ["nbops", "--max-len", "-1"]),
    ("--len", ["nbcount", "--set", "0", "--len", "-1"]),
    ("--k", ["gadget", "verify", "--k", "-1"]),
    ("--ell-max", ["boundcheck", "lemma9", "--ell-max", "0"]),
    ("--samples", ["boundcheck", "lemma6", "--c", "3", "--d", "4", "--ell", "2",
                   "--samples", "0"]),
    ("--seed", ["--seed", "-1", "pipeline", "--big", "c6.bg", "--gadget-params", "2,1,1,2"]),
    ("--seed", ["--seed", "x", "gadget", "sample", "--L", "2", "--R", "1", "--c", "1",
                "--d", "2", "--out", "g.bg"]),
    ("--margin", ["qhat", "--c0", "35", "--alpha", "2", "--margin", "0"]),
    ("--ell", ["boundcheck", "lemma8", "--set", "0", "--ell", "-1"]),
    ("--ell", ["boundcheck", "lemma6", "--c", "3", "--d", "4", "--ell", "0"]),
    *(("--c", ["boundcheck", "lemma6", "--c", c, "--d", d, "--ell", "2",
               "--samples", "5"]) for c, d in (("1", "5"), ("5", "3"), ("4", "4"))),
    *(("--c", [command, "--c", "5", "--d", "3", "--eps", "0"]) for command in ("bounds", "constants")),
    *(("--eps", [command, "--c", "2", "--d", "3", "--eps", value])
      for command in ("bounds", "constants") for value in ("nan", "inf", "-0.5", "x")),
    # a vertex set is checked before its graph file is read, even a missing one
    *(("--set", [*command, "--in", "missing.bg", "--set", value, *rest])
      for command, rest in ((["nbcount"], ["--len", "2"]), (["boundcheck", "lemma8"], ["--ell", "1"]))
      for value in ("x", "-1", "0,x", "1.5")),
    ("--n", ["poly", "--c", "2", "--d", "3", "--n", "-1"]),
    # degree flags: poly needs 2 <= c <= d, gadget sample sides and degrees
    # >= 1, qhat c0 >= 6
    *(("--c", ["poly", "--c", c, "--d", d, "--n", "2"]) for c, d in (("1", "3"), ("5", "3"))),
    ("--d", ["poly", "--c", "2", "--d", "x", "--n", "2"]),
    *((flag, ["gadget", "sample", "--L", "4", "--R", "2", "--c", "1", "--d", "2",
              "--out", "g.bg", flag, "0"]) for flag in ("--L", "--R", "--c", "--d")),
    *(("--c0", ["qhat", "--c0", value, "--alpha", "2"]) for value in ("5", "-35", "x")),
    # --alpha is a rational number > 0, for qhat and pipeline alike
    *(("--alpha", [*command, "--alpha", value])
      for command in (["qhat", "--c0", "35"],
                      ["pipeline", "--big", "c6.bg", "--gadget-params", "2,1,1,2"])
      for value in ("0", "-2", "1/0", "nan", "inf", "x", "1/2/3")),
])
def test_out_of_range_flag_is_a_flag_error(capsys, flag, argv):
    # each value is refused before any file is read: the error line names the flag
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err.splitlines()[-1]


def test_precision_env_and_flag(capsys, monkeypatch):
    # --precision is the one way to set the working precision: UNE_PRECISION is not read
    monkeypatch.setenv("UNE_PRECISION", "45")
    code, payload = run_cli(capsys, "qhat", "--c0", "35", "--alpha", "2")
    assert code == 0
    assert payload["precision"] == params.DEFAULT_PRECISION
    code, payload = run_cli(capsys, "--precision", "25", "qhat", "--c0", "35", "--alpha", "2")
    assert code == 0
    assert payload["precision"] == 25


def test_precision_env_is_ignored_where_precision_is_unused(capsys, monkeypatch, files):
    # a value below the floor is no flag error either: the variable is ignored everywhere
    monkeypatch.setenv("UNE_PRECISION", "10")
    code, payload = run_cli(capsys, "spectrum", "--in", files["k32"])
    assert code == 0 and payload["ramanujan"] is True
    code, payload = run_cli(capsys, "boundcheck", "lemma9", "--in", files["c4"], "--ell-max", "2")
    assert code == 0 and payload["ok"] is True
    code, payload = run_cli(capsys, "boundcheck", "lemma6", "--c", "2", "--d", "3",
                            "--ell", "14", "--samples", "50")
    assert code == 0 and payload["precision"] == params.DEFAULT_PRECISION


@pytest.mark.parametrize("argv", [
    # the convention selectors: q_hat_by_convention carries all four readings
    ["qhat", "--c0", "35", "--alpha", "2", "--interpretation", "prime-powers-only"],
    ["qhat", "--c0", "35", "--alpha", "2", "--boundary", "last-fail"],
    # --seed and --budget are set before the subcommand only
    ["gadget", "sample", "--L", "4", "--R", "2", "--c", "1", "--d", "2", "--out", "{dir}/s.bg",
     "--seed", "6"],
    ["gadget", "verify", "--in", "{k32}", "--k", "3", "--budget", "3"],
    # each boundcheck kind takes only its own flags, and needs the ones it reads
    ["boundcheck", "lemma9", "--in", "{c4}", "--samples", "5"],
    ["boundcheck", "lemma9", "--in", "{c4}", "--ell-max", "2", "--c", "9", "--set", "1"],
    ["boundcheck", "lemma6", "--c", "2", "--d", "3"],
    ["boundcheck", "lemma8", "--in", "{k32}", "--ell", "1"],
    ["boundcheck", "--kind", "lemma9", "--in", "{c4}"],
    # one gadget source, never both
    ["pipeline", "--big", "{c6}", "--gadget", "{k21}", "--gadget-params", "9,9,9,9"],
])
def test_removed_or_foreign_flag_is_a_flag_error(capsys, files, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(**files) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not (files["dir"] / "s.bg").exists()


# one valid argv per command, and the top-level flags each command reads
COMMAND_ARGV = {
    "spectrum": ["spectrum", "--in", "g.bg"],
    "incidence": ["incidence", "--in", "g.g"],
    "nbops": ["nbops", "--in", "g.bg", "--max-len", "2"],
    "nbcount": ["nbcount", "--in", "g.bg", "--set", "0", "--len", "2"],
    "poly": ["poly", "--c", "2", "--d", "3", "--n", "2"],
    "boundcheck lemma6": ["boundcheck", "lemma6", "--c", "2", "--d", "3", "--ell", "2"],
    "boundcheck lemma8": ["boundcheck", "lemma8", "--in", "g.bg", "--set", "0", "--ell", "1"],
    "boundcheck lemma9": ["boundcheck", "lemma9", "--in", "g.bg"],
    "gadget sample": ["gadget", "sample", "--L", "4", "--R", "2", "--c", "1", "--d", "2",
                      "--out", "g.bg"],
    "gadget verify": ["gadget", "verify", "--in", "g.bg", "--k", "2"],
    "product": ["product", "--big", "b.bg", "--gadget", "g.bg", "--out", "p.bg"],
    "qhat": ["qhat", "--c0", "35", "--alpha", "2"],
    "constants": ["constants", "--c", "2", "--d", "3", "--eps", "0.5"],
    "bounds": ["bounds", "--c", "2", "--d", "3", "--eps", "0.1"],
    "pipeline": ["pipeline", "--big", "b.bg", "--gadget", "g.bg"],
}
TOP_LEVEL_READERS = {
    ("--seed", "0"): {"gadget sample", "pipeline", "boundcheck lemma6"},
    ("--precision", "40"): {"qhat", "boundcheck lemma6"},
    ("--budget", "5"): {"gadget verify", "pipeline"},
    ("--tolerance", "0.5"): {"spectrum", "incidence", "pipeline", "boundcheck lemma8"},
}


@pytest.mark.parametrize("flag,value,command", [
    (flag, value, command) for (flag, value), readers in TOP_LEVEL_READERS.items()
    for command in COMMAND_ARGV if command not in readers])
def test_top_level_flag_given_to_a_command_that_ignores_it_is_a_flag_error(
        capsys, flag, value, command):
    # refused before any file is read, even at its default value (--seed 0)
    with pytest.raises(SystemExit) as exc:
        cli.main([flag, value, *COMMAND_ARGV[command]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"{flag} is not read by {command}")


@pytest.mark.parametrize("c0,alpha,q_hat", [(35, "2", 1492), (100, "1.01", 1135),
                                            (10, "2", 18907), (100, "100", 136051)])
def test_precision_floor_reproduces_the_table(capsys, c0, alpha, q_hat):
    code, payload = run_cli(capsys, "--precision", str(cli.PRECISION_FLOOR), "qhat",
                            "--c0", str(c0), "--alpha", alpha)
    assert code == 0
    assert payload["q_hat"] == q_hat and payload["precision"] == cli.PRECISION_FLOOR


@pytest.mark.parametrize("argv", [
    ["nbops", "--max-len", "0"],
    ["nbcount", "--set", "0", "--len", "0"],
    ["gadget", "verify", "--k", "0"],
    ["nbcount", "--set", "", "--len", "2"],
])
def test_zero_stays_a_valid_count(capsys, files, argv):
    code, payload = run_cli(capsys, *argv, "--in", files["c4"])
    assert code == 0 and payload is not None


def test_tolerance_flag_accepts_a_finite_positive_value(capsys, files):
    code, payload = run_cli(capsys, "--tolerance", "1e-2", "spectrum", "--in", files["k32"])
    assert code == 0 and payload["tolerance"] == 0.01


def test_budget_zero_is_exhausted_at_once(capsys, files):
    code, payload = run_cli(capsys, "--budget", "0", "gadget", "verify", "--in", files["k32"],
                            "--k", "3")
    assert code == cli.EXIT_BUDGET
    assert payload["budget_exhausted"] is True and payload["subsets_checked"] == 0


def test_pipeline_sampled_gadget(capsys, files):
    code, payload = run_cli(
        capsys, "pipeline", "--big", files["c6"], "--gadget-params", "2,1,1,2",
        "--audit-trials", "10",
    )
    assert code == 0


def test_pipeline_alpha_consistency(capsys, files):
    # C6 is (2,2) with d = 2, K21 has r0 = 1: alpha = d/(c*r0) = 1
    code, payload = run_cli(
        capsys, "pipeline", "--big", files["c6"], "--gadget", files["k21"],
        "--alpha", "2", "--audit-trials", "5",
    )
    assert code == cli.EXIT_STAGE_PRODUCT
    for alpha in ("1", "1.0", "2/2"):
        code, payload = run_cli(
            capsys, "pipeline", "--big", files["c6"], "--gadget", files["k21"],
            "--alpha", alpha, "--audit-trials", "5",
        )
        assert code == cli.EXIT_OK
        assert payload["stages"][2]["alpha"] == "1"


@pytest.mark.parametrize("source,k,attempts", [
    # K21's two left vertices share its one right vertex, so {0, 1} is bad
    (["--gadget", "{k21}"], 3, [{}]),
    # both draws of the (2,1,1,2) gadget are K21 again
    (["--gadget-params", "2,1,1,2", "--retries", "2"], 2, [{"seed": 0}, {"seed": 1}]),
])
def test_pipeline_gadget_short_of_k_exits_11(capsys, files, source, k, attempts):
    big = files["c4"] if "--gadget" in source else files["c6"]
    code, payload = run_cli(capsys, "pipeline", "--big", big,
                            *(a.format(**files) for a in source), "--k", str(k))
    assert code == cli.EXIT_STAGE_GADGET
    assert payload["passed"] is False
    assert [s["stage"] for s in payload["stages"]] == ["spectral", "gadget"]
    cert = {"target_k": 2, "verified_k": 1, "witness": [0, 1], "subsets_checked": 4,
            "budget_exhausted": False}
    assert payload["stages"][-1] == {"stage": "gadget", "ok": False, "required_k": k,
                                     "attempts": [{**a, **cert} for a in attempts]}


def test_pipeline_requires_gadget_source(capsys, files):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline", "--big", files["c6"]])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_budget_exit_code(capsys, files):
    code, payload = run_cli(capsys, "nbcount", "--in", files["c4"], "--set", "0", "--len", "21")
    assert code == cli.EXIT_BUDGET


@pytest.mark.parametrize("argv", [
    ["nbops", "--max-len", "21"],
    ["nbcount", "--set", "0", "--len", "21"],
    ["nbcount", "--set", "0", "--len", "21", "--mode", "all-in-S"],
    ["boundcheck", "lemma8", "--set", "0", "--ell", "11"],
    ["boundcheck", "lemma9", "--ell-max", "21"],
])
def test_walk_length_cap_exits_7(capsys, files, argv):
    # C6 is certified and (c-1)(d-1) = 1, so lemma 8 at ell = 11 passes its
    # smallness condition and asks for walks of length 22
    code, payload = run_cli(capsys, *argv, "--in", files["c6"])
    assert code == cli.EXIT_BUDGET
    assert payload["error"]["type"] == "EnumerationBudgetError"


def test_lemma9_reports_past_the_enumeration_caps(capsys, tmp_path):
    # K21's incidence graph has 420 edges; lemma 9 counts its walks up to
    # length 20 and exits 7 only past that
    path = tmp_path / "k21inc.bg"
    write_graph(incidence_graph(complete_graph(21)), path)
    code, payload = run_cli(capsys, "boundcheck", "lemma9", "--in", str(path))
    assert code == cli.EXIT_OK
    assert [e["count"] for e in payload["entries"][:4]] == [420, 4200, 7980, 79800]
    code, payload = run_cli(capsys, "boundcheck", "lemma9", "--in", str(path),
                            "--ell-max", "20")
    assert code == cli.EXIT_OK and len(payload["entries"]) == 20
    code, payload = run_cli(capsys, "boundcheck", "lemma9", "--in", str(path),
                            "--ell-max", "21")
    assert code == cli.EXIT_BUDGET
    assert payload["error"]["type"] == "EnumerationBudgetError"
    # 6,000 edges, but padded to the hub's degree the left table has 9e6 empty cells
    write_graph(hub(3000), path)
    code, payload = run_cli(capsys, "boundcheck", "lemma9", "--in", str(path))
    assert code == cli.EXIT_BUDGET
    assert payload["error"]["type"] == "EnumerationBudgetError"


def test_qhat_past_the_scan_limit_exits_7():
    # q_hat(6, 3/2) lies far past the scan limit; without one this ran for minutes
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "expanderlab.cli", "qhat", "--c0", "6", "--alpha", "3/2",
         "--margin", "100"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == cli.EXIT_BUDGET, done.stderr
    assert json.loads(done.stdout)["error"]["type"] == "EnumerationBudgetError"
    assert done.stderr.count("\n") == 1
