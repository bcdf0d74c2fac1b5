"""End-to-end tests of the command-line interface."""

import json

import pytest

from heisdouble import cli
from heisdouble.report import check


@pytest.fixture(scope="module")
def cfg(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    paths = {}
    for name, payload in (
            ("weyl", {"type": "weyl"}),
            ("a2", {"type": "qheis", "cartan": [[2, -1], [-1, 2]]}),
            ("lat", {"type": "lattice", "form": [[1, 0], [0, 1]]}),
            ("zero", {"type": "lattice", "form": [[0, 0], [0, 0]]})):
        p = root / (name + ".json")
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- normal-order --------------------------------------------------------


def test_normal_order_weyl(cfg, capsys):
    rc, out, err = run(capsys, ["normal-order", "--instance", cfg["weyl"],
                                "--expr", "d*x"])
    assert rc == 0
    assert out == "q*x#d + 1\n"
    assert err == ""


def test_normal_order_output_reparses_to_itself(cfg, capsys):
    rc, out, _ = run(capsys, ["normal-order", "--instance", cfg["weyl"],
                              "--expr", "d^2 * x^2"])
    assert rc == 0
    rc2, out2, _ = run(capsys, ["normal-order", "--instance", cfg["weyl"],
                                "--expr", out.strip()])
    assert rc2 == 0
    assert out2 == out


def test_normal_order_json(cfg, capsys):
    rc, out, _ = run(capsys, ["normal-order", "--instance", cfg["a2"], "--json",
                              "--expr", "p'[1,1] p[1,1]"])
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"instance", "expr", "normal_form"}
    assert payload["instance"] == "qheis[2]"


def test_byte_determinism(cfg, capsys):
    argv = ["verify", "--instance", cfg["weyl"], "--max-degree", "3", "--json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert (rc1, out1) == (rc2, out2)
    argv = ["normal-order", "--instance", cfg["a2"], "--expr", "p'[2,1] p[2,2]"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert (rc1, out1) == (rc2, out2)


# -- pair ----------------------------------------------------------------


def test_pair_weyl(cfg, capsys):
    rc, out, _ = run(capsys, ["pair", "--instance", cfg["weyl"],
                              "--expr", "d^2", "--expr", "x^2"])
    assert rc == 0
    assert out == "1 + q\n"


def test_pair_json(cfg, capsys):
    rc, out, _ = run(capsys, ["pair", "--instance", cfg["weyl"], "--json",
                              "--expr", "d^2", "--expr", "x^2"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == "1 + q"
    assert set(payload) == {"instance", "minus", "plus", "value"}


def test_pair_requires_two_exprs(cfg, capsys):
    rc, _, err = run(capsys, ["pair", "--instance", cfg["weyl"],
                              "--expr", "d^2"])
    assert rc == 2
    assert "error:" in err


def test_pair_rejects_wrong_side(cfg, capsys):
    rc, _, err = run(capsys, ["pair", "--instance", cfg["weyl"],
                              "--expr", "x^2", "--expr", "x^2"])
    assert rc == 2
    assert "minus" in err


# -- antipode ------------------------------------------------------------


def test_antipode_plus_side(cfg, capsys):
    rc, out, _ = run(capsys, ["antipode", "--instance", cfg["weyl"],
                              "--expr", "x^2"])
    assert rc == 0
    assert out == "q*x^2\n"


def test_antipode_minus_side(cfg, capsys):
    rc, out, _ = run(capsys, ["antipode", "--instance", cfg["weyl"],
                              "--expr", "d"])
    assert rc == 0
    assert out == "-d\n"


def test_antipode_rejects_mixed_elements(cfg, capsys):
    rc, _, err = run(capsys, ["antipode", "--instance", cfg["weyl"],
                              "--expr", "d*x"])
    assert rc == 2
    assert "one-sided" in err


# -- verify --------------------------------------------------------------


def test_verify_weyl_text(cfg, capsys):
    rc, out, _ = run(capsys, ["verify", "--instance", cfg["weyl"],
                              "--max-degree", "3"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "overall: pass"
    assert any("check_bialgebra" in l for l in lines)
    assert any("verify_commutation" in l for l in lines)


def test_verify_json_schema(cfg, capsys):
    rc, out, _ = run(capsys, ["verify", "--instance", cfg["lat"],
                              "--max-degree", "2", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"instance", "N", "reports", "skipped", "status"}
    assert payload["status"] == "pass"
    assert payload["skipped"] == []
    for r in payload["reports"]:
        assert r["status"] == "pass"
        assert set(r) == {"check", "instance", "N", "status"}


def test_verify_degenerate_form_skips_fock_suites(cfg, capsys):
    rc, out, _ = run(capsys, ["verify", "--instance", cfg["zero"],
                              "--max-degree", "2", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["skipped"] == ["perfectness_check", "verify_vacuum"]
    assert payload["status"] == "pass"


def test_verify_failure_exit_code(cfg, capsys, monkeypatch):
    @check
    def verify_commutation(D, N):
        return {"reason": "forced"}

    monkeypatch.setattr(cli, "verify_commutation", verify_commutation)
    rc, out, _ = run(capsys, ["verify", "--instance", cfg["weyl"],
                              "--max-degree", "2"])
    assert rc == 1
    assert out.strip().splitlines()[-1] == "overall: fail"


def test_verify_rejects_negative_degree(cfg, capsys):
    rc, _, err = run(capsys, ["verify", "--instance", cfg["weyl"],
                              "--max-degree", "-1"])
    assert rc == 2
    assert "error:" in err


def test_verify_refuses_degree_zero(cfg, capsys):
    rc, out, err = run(capsys, ["verify", "--instance", cfg["weyl"],
                                "--max-degree", "0"])
    assert rc == 2
    assert out == ""
    assert err == "error: --max-degree must be positive\n"


@pytest.mark.parametrize("payload", [
    {"type": "weyl", "name": "myweyl"},
    {"type": "qheis", "cartan": [[2, -1], [-1, 2]], "name": "qh",
     "shift": {"alpha": [[1]]}},
], ids=["weyl", "shifted-qheis"])
def test_verify_reports_name_the_configured_instance(payload, capsys, tmp_path):
    path = tmp_path / "named.json"
    path.write_text(json.dumps(payload))
    rc, out, _ = run(capsys, ["verify", "--instance", str(path),
                              "--max-degree", "2", "--json"])
    assert rc == 0
    name = payload["name"]
    report = json.loads(out)
    assert report["instance"] == name
    assert [r["instance"] for r in report["reports"]] == \
        [name + "+", name + "-"] + [name] * 6


# -- fock-matrix ---------------------------------------------------------


def test_fock_matrix_schema_and_values(cfg, capsys):
    rc, out, _ = run(capsys, ["fock-matrix", "--instance", cfg["weyl"],
                              "--expr", "d", "--in-degree", "3"])
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"instance", "expr", "in_degree", "out_degree",
                            "row_labels", "col_labels", "entries"}
    assert payload["col_labels"] == ["1", "x", "x^2", "x^3"]
    assert payload["row_labels"] == ["1", "x", "x^2"]
    assert payload["out_degree"] == 2
    assert payload["entries"][0][1] == "1"
    assert payload["entries"][1][2] == "1 + q"
    assert payload["entries"][2][3] == "1 + q + q^2"
    assert payload["entries"][0][0] == "0"


def test_fock_matrix_refuses_degenerate_form(cfg, capsys):
    rc, _, err = run(capsys, ["fock-matrix", "--instance", cfg["zero"],
                              "--expr", "p[1,1]", "--in-degree", "2"])
    assert rc == 2
    assert "nondegenerate" in err


def test_fock_matrix_out_file(cfg, capsys, tmp_path):
    target = tmp_path / "m.json"
    rc, out, _ = run(capsys, ["fock-matrix", "--instance", cfg["weyl"],
                              "--expr", "x", "--in-degree", "2",
                              "--out", str(target)])
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["expr"] == "x"


@pytest.mark.parametrize("target", ["missing/x.txt", "."])
def test_unwritable_out_is_reported(cfg, capsys, tmp_path, target):
    # a missing directory, or a directory in place of the file
    rc, out, err = run(capsys, ["info", "--instance", cfg["weyl"],
                                "--out", str(tmp_path / target)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1


def test_fock_matrix_rejects_negative_in_degree(cfg, capsys):
    rc, _, err = run(capsys, ["fock-matrix", "--instance", cfg["weyl"],
                              "--expr", "x", "--in-degree", "-2"])
    assert rc == 2
    assert "error:" in err


# -- info ----------------------------------------------------------------


def test_info_text(cfg, capsys):
    rc, out, _ = run(capsys, ["info", "--instance", cfg["weyl"]])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance: weyl (type weyl)"
    assert any(l.startswith("perfect pairing: true") for l in lines)
    gens = next(l for l in lines if l.startswith("generators:"))
    assert "x" in gens and "d" in gens


def test_info_json_with_gram(cfg, capsys):
    rc, out, _ = run(capsys, ["info", "--instance", cfg["weyl"], "--json",
                              "--gram", "2"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["type"] == "weyl"
    assert payload["compatible"] is True
    assert payload["perfect"] is True
    assert set(payload["gram"]) == {"0", "1", "2"}
    assert payload["gram"]["2"]["entries"] == [["1 + q"]]
    assert payload["basis_sizes"] == {str(d): 1 for d in range(5)}


def test_info_rejects_negative_gram(cfg, capsys):
    rc, out, err = run(capsys, ["info", "--instance", cfg["weyl"], "--json",
                                "--gram", "-1"])
    assert rc == 2
    assert out == ""
    assert err == "error: --gram must be nonnegative\n"


def test_info_qheis_json(cfg, capsys):
    rc, out, _ = run(capsys, ["info", "--instance", cfg["a2"], "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["generators"] == ["h", "h'", "p", "p'"]
    assert payload["basis_sizes"]["3"] == 10


# -- error handling ------------------------------------------------------


def test_unknown_command_is_usage_error(cfg, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["frobnicate", "--instance", cfg["weyl"]])
    assert e.value.code == 2


def test_missing_instance_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["normal-order", "--expr", "x"])
    assert e.value.code == 2


def test_bad_config_path(cfg, capsys):
    rc, _, err = run(capsys, ["info", "--instance", "/nonexistent/c.json"])
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("payload", [
    {"type": "weyl", "shift": {"alpha": [[1, 0], [0, 1]]}},
    {"type": "weyl", "shift": {"alpha": 5}},
    {"type": "lattice", "form": 5},
    {"type": "lattice", "form": [[1.7]]},
    {"type": "qheis", "cartan": [[2]], "name": 5},
])
def test_malformed_config_is_config_error(payload, capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    rc, out, err = run(capsys, ["verify", "--instance", str(p),
                                "--max-degree", "1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_expression_syntax_error(cfg, capsys):
    rc, _, err = run(capsys, ["normal-order", "--instance", cfg["weyl"],
                              "--expr", "x +"])
    assert rc == 2
    assert "offset" in err


@pytest.mark.parametrize("text, message", [
    # str.isdigit accepts '²', but int() does not
    ("x\u00b2", "error: unexpected character '\u00b2' at offset 1\n"),
    ("(" * 400 + "x" + ")" * 400,
     "error: parentheses nested deeper than 100 at offset 100\n"),
], ids=["superscript-digit", "deep-nesting"])
def test_unparsable_expression_is_refused_not_a_crash(cfg, capsys, text, message):
    rc, out, err = run(capsys, ["normal-order", "--instance", cfg["weyl"],
                                "--expr", text])
    assert rc == 2
    assert out == ""
    assert err == message


def test_unknown_generator_is_reported(cfg, capsys):
    rc, _, err = run(capsys, ["normal-order", "--instance", cfg["weyl"],
                              "--expr", "p[1,1]"])
    assert rc == 2
    assert "unknown generator" in err
