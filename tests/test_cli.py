"""Command-line front end: subcommands, JSON output, exit codes, caps."""

from __future__ import annotations

import json

import pytest

from braidqp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


def test_nf_command(capsys):
    code, data, _ = run_json(capsys, "nf", "-n", "3", "1 2 1")
    assert code == 0
    assert data["p"] == 1 and data["factors"] == []
    assert (data["inf"], data["canonical_length"], data["sup"]) == (1, 0, 1)
    code, data, _ = run_json(capsys, "nf", "-n", "4", "--structure", "dual", "3 2 1")
    assert code == 0
    assert data["p"] == 1


def test_invariants_command(capsys):
    code, data, _ = run_json(capsys, "invariants", "-n", "3", "1 -2 -2")
    assert code == 0
    assert {"inf_s", "ell_s", "sup_s"} <= set(data)
    assert data["inf_s"] + data["ell_s"] == data["sup_s"]


def test_sc_command_on_reference_fixture(capsys):
    code, data, _ = run_json(
        capsys, "sc", "-n", "4", "--structure", "dual", "D^-1 b a 1 2 a b"
    )
    assert code == 0
    assert data["sc_size"] == 24
    assert data["orbit_sizes"] == [24]
    assert data["inf_s"] == -1 and data["ell_s"] == 6


def test_orbit_command(capsys):
    code, data, _ = run_json(
        capsys, "orbit", "-n", "4", "--structure", "dual", "D^-1 b a 1 2 a b"
    )
    assert code == 0
    assert data["cycling_orbit"] == 24


def test_conjugate_command(capsys):
    code, data, _ = run_json(capsys, "conjugate", "-n", "3", "1 2", "2 1")
    assert code == 0 and data["verdict"] is True
    assert "conjugator" in data
    code, data, _ = run_json(capsys, "conjugate", "-n", "3", "1 1", "1 2")
    assert code == 0 and data["verdict"] is False


def test_recognize_command_with_verification(capsys):
    code, data, _ = run_json(
        capsys,
        "recognize",
        "-n",
        "4",
        "--structure",
        "dual",
        "D^-1 b a 1 3 2",
        "-x",
        "1",
        "-k",
        "1",
        "-y",
        "1",
        "-l",
        "1",
        "--verify",
    )
    assert code == 0
    assert data["verdict"] is True
    assert data["witness"]["n"] == 1
    assert data["witness_verified"] is True
    # a NO verdict still exits 0
    code, data, _ = run_json(
        capsys, "recognize", "-n", "3", "1 1 1", "-x", "1", "-k", "2"
    )
    assert code == 0 and data["verdict"] is False


def test_qp3_command(capsys):
    code, data, _ = run_json(capsys, "qp3", "D^1 -1 -1")
    assert code == 0 and data["verdict"] is True
    code, data, _ = run_json(capsys, "qp3", "D^2 -1 -1 -1 -1 -1")
    assert code == 0 and data["verdict"] is False
    assert data["e"] == 1
    # wrong strand count or structure is an input error
    code, _, err = run(capsys, "qp3", "-n", "4", "1")
    assert code == 2 and "error" in err


def test_text_output_mode(capsys):
    code, out, _ = run(capsys, "nf", "-n", "3", "1")
    assert code == 0
    assert "p: 0" in out


def test_malformed_word_exits_2(capsys):
    code, _, err = run(capsys, "nf", "-n", "3", "1 0 2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "recognize", "-n", "3", "1", "-x", "1 2", "-k", "1")
    assert code == 2


def test_resource_cap_exits_3(capsys):
    code, _, err = run(capsys, "sc", "-n", "4", "--max-sc", "1", "1 -2 3 -1 2 -3 1 1")
    assert code == 3 and "cap" in err


def test_env_var_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDQP_MAX_SC", "1")
    code, _, err = run(capsys, "sc", "-n", "4", "1 -2 3 -1 2 -3 1 1")
    assert code == 3
    # an explicit flag beats the environment
    monkeypatch.setenv("BRAIDQP_MAX_SC", "1")
    code, data, _ = run_json(
        capsys, "sc", "-n", "3", "--max-sc", "100000", "1 2"
    )
    assert code == 0
    monkeypatch.setenv("BRAIDQP_MAX_ORBIT", "nonsense")
    with pytest.raises(SystemExit):
        main(["invariants", "-n", "3", "1 2"])


def test_threads_flag(capsys):
    # the thread pool is gone: the flag is now an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["sc", "-n", "4", "--structure", "dual", "--threads", "2", "D^-1 b a 1 2 a b"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_standard_single_class_with_positive_inf(capsys):
    code, data, _ = run_json(capsys, "recognize", "-n", "3", "D", "-x", "1", "-k", "3")
    assert code == 0 and data["verdict"] is False


@pytest.mark.parametrize("command", ["invariants", "orbit"])
def test_large_garside_power(capsys, command):
    code, data, _ = run_json(capsys, command, "-n", "4", "D^-3000 1")
    assert code == 0
    if command == "invariants":
        assert (data["inf_s"], data["ell_s"], data["sup_s"]) == (-3000, 1, -2999)


def test_strand_bound_exits_2(capsys):
    code, _, err = run(capsys, "nf", "-n", "65", "1")
    assert code == 2 and "64" in err


def test_recursion_error_exits_3(capsys, monkeypatch):
    def overflow(args, report):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("braidqp.cli._cmd_nf", overflow)
    code, out, err = run(capsys, "nf", "-n", "3", "1")
    assert code == 3 and err.startswith("error:") and "Traceback" not in err
