"""Command-line front end: subcommands, JSON output, exit codes, caps."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hs

import braidqp
from braidqp.cli import build_parser, main


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
        "-k",
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
        capsys, "recognize", "-n", "3", "1 1 1", "-k", "2"
    )
    assert code == 0 and data["verdict"] is False


def test_qp3_command(capsys):
    code, data, _ = run_json(capsys, "qp3", "D^1 -1 -1")
    assert code == 0 and data["verdict"] is True
    code, data, _ = run_json(capsys, "qp3", "D^2 -1 -1 -1 -1 -1")
    assert code == 0 and data["verdict"] is False
    assert data["e"] == 1
    # qp3 works on standard Br_3 only and takes no -n or --structure
    with pytest.raises(SystemExit) as exc:
        main(["qp3", "-n", "4", "1"])
    assert exc.value.code == 2
    assert "-n" in capsys.readouterr().err


def test_text_output_mode(capsys):
    code, out, _ = run(capsys, "nf", "-n", "3", "1")
    assert code == 0
    assert "p: 0" in out


def test_malformed_word_exits_2(capsys):
    code, _, err = run(capsys, "nf", "-n", "3", "1 0 2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "recognize", "-n", "3", "1 0", "-k", "1")
    assert code == 2 and "error" in err


def test_resource_cap_exits_3(capsys):
    code, _, err = run(capsys, "sc", "-n", "4", "--max-sc", "1", "1 -2 3 -1 2 -3 1 1")
    assert code == 3 and "cap" in err


def test_orbit_cap_exits_3(capsys):
    # the braid lies on its sliding circuit; its cycling orbit has 12 elements
    args = ("recognize", "-n", "3", "--structure", "dual", "2 1 -1 2 -1 2")
    code, _, err = run(capsys, *args, "--max-orbit", "1", "-k", "1", "-l", "1")
    assert code == 3 and "cycling orbit" in err
    code, data, _ = run_json(capsys, *args, "--max-orbit", "12", "-k", "1", "-l", "1")
    assert code == 0 and data["verdict"] is False
    # its sliding-circuits set is that one orbit, which the sc partition walks
    args = ("sc", "-n", "3", "--structure", "dual", "2 1 -1 2 -1 2")
    code, _, err = run(capsys, *args, "--max-orbit", "11")
    assert code == 3 and "cycling orbit" in err
    code, data, _ = run_json(capsys, *args, "--max-orbit", "12")
    assert code == 0 and data["orbit_sizes"] == [12]


@pytest.mark.parametrize(
    "command, options",
    [
        ("nf", ("--max-sc", "--max-orbit")),
        ("invariants", ("--max-sc",)),
        ("orbit", ("--max-sc",)),
        ("qp3", ("--max-sc", "--max-orbit", "--structure", "-n")),
        ("recognize", ("-x", "-y")),
    ],
    ids=["nf", "invariants", "orbit", "qp3", "recognize"],
)
def test_subcommands_take_only_the_options_they_read(capsys, command, options):
    # each value would be valid where the option exists
    values = {"--structure": "standard", "-n": "3", "-x": "1", "-y": "1"}
    required = {"recognize": ["-k", "1"]}.get(command, [])
    for option in options:
        with pytest.raises(SystemExit) as exc:
            main([command, *required, option, values.get(option, "100"), "1"])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


def test_threads_flag(capsys):
    # the thread pool is gone: the flag is now an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["sc", "-n", "4", "--structure", "dual", "--threads", "2", "D^-1 b a 1 2 a b"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_standard_single_class_with_positive_inf(capsys):
    code, data, _ = run_json(capsys, "recognize", "-n", "3", "D", "-k", "3")
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
    def overflow(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("braidqp.cli._cmd_nf", overflow)
    code, out, err = run(capsys, "nf", "-n", "3", "1")
    assert code == 3 and err.startswith("error:") and "Traceback" not in err


def test_calls_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process; an error between two calls
    # changes neither of them
    calls = (
        ["nf", "-n", "4", "--json", "1 -2 3"],
        ["nf", "-n", "3", "--max-sc", "5", "1"],
        ["conjugate", "-n", "3", "1 0", "1"],
        ["conjugate", "-n", "3", "--json", "1 2", "2 1"],
    )
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    src = str(Path(braidqp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "braidqp.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 2, 0]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("structure", ["standard", "dual"])
def test_two_strand_recognize(capsys, structure):
    args = ("recognize", "-n", "2", "--structure", structure)
    code, data, _ = run_json(capsys, *args, "1 1 1", "-k", "3", "--verify")
    assert code == 0 and data["verdict"] is True and data["witness_verified"] is True
    code, data, _ = run_json(capsys, *args, "1 1", "-k", "3")
    assert code == 0 and data["verdict"] is False


# Words of up to 8 tokens of the grammar, which hold on some strand counts
# and not on others, and in half of them one token no grammar rule accepts.
# Exponents stay at most 3: a word such as 1^999999999 stalls, and so does sc
# past small n.
_NAMES = {
    "standard": ("D", "d", "s1", "s2", "s4"),
    "dual": ("D", "d", "s0", "s1", "s4", "a", "b", "a21", "a31", "a42", "a53"),
}
_JUNK = ("0", "x", "a1", "s", "^", "1^", "D^x", "--", "#", "1.5", "a^^2")


@hs.composite
def _word(draw, structure):
    name = hs.tuples(hs.sampled_from(_NAMES[structure]), hs.none() | hs.integers(-3, 3))
    token = hs.one_of(
        hs.integers(1, 4).map(str),
        hs.integers(-4, -1).map(str),
        name.map(lambda t: t[0] if t[1] is None else f"{t[0]}^{t[1]}"),
    )
    tokens = draw(hs.lists(token, max_size=8))
    if draw(hs.booleans()):
        tokens.insert(draw(hs.integers(0, len(tokens))), draw(hs.sampled_from(_JUNK)))
    return " ".join(tokens[:8])


@hs.composite
def _argv(draw):
    command = draw(hs.sampled_from(("nf", "invariants", "sc", "orbit", "conjugate", "recognize", "qp3")))
    structure = "standard" if command == "qp3" else draw(hs.sampled_from(("standard", "dual")))
    argv = [command]
    if command != "qp3":
        n = draw(hs.sampled_from((3, 4, 5, 2, 1, 0, -1)))
        argv += ["-n", str(n), "--structure", structure]
    if command in ("sc", "conjugate", "recognize"):
        argv += ["--max-sc", str(draw(hs.integers(-1, 20)))]
    if command not in ("nf", "qp3"):
        argv += ["--max-orbit", str(draw(hs.integers(-1, 20)))]
    if command == "recognize":
        argv += ["-k", str(draw(hs.sampled_from((1, 2, 3, 0, -1))))]
        l = draw(hs.sampled_from((None, 1, 2, 3, 0, -1)))
        argv += [] if l is None else ["-l", str(l)]
        argv += ["--verify"] if draw(hs.booleans()) else []
    if draw(hs.booleans()):
        argv.append("--json")
    argv.append(draw(_word(structure)))
    if command == "conjugate":
        argv.append(draw(_word(structure)))
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_argv())
def test_cli_fuzz_exits_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
