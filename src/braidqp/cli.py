"""Command-line front end.

Subcommands: nf, invariants, sc, orbit, conjugate, recognize, qp3.  Braid
words use the grammar of the words module.  Each subcommand takes only the
options it reads: qp3 works on the standard structure on 3 strands and takes
neither --structure nor -n, and the caps --max-sc and --max-orbit go to the
subcommands that enumerate or walk.  recognize asks whether the word lies
in the class of k-th atom powers, or, when -l is given, in the product of
that class and the class of l-th atom powers.  It takes no atom option: every
atom of Br_n is conjugate to every other one, so which atom a class is named
by never changes the verdict.  Exit codes: 0 on success (a NO
verdict is a success), 2 on malformed input (including more than
MAX_STRANDS strands), 3 when a resource cap is hit or the recursion limit or
memory runs out.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .conjugacy import (
    DEFAULT_MAX_ORBIT,
    DEFAULT_MAX_SC,
    ResourceCapExceeded,
    are_conjugate,
    cycling_orbit,
    decycling_orbit,
    slide_to_circuit,
    sliding_circuits,
)
from .core import GarsideStructure, NormalForm, Simple
from .qp3 import qp3, to_pa_form
from .recognition import (
    RecognitionQuery,
    recognize,
    structure_for,
    verify_witness,
)
from .words import (
    StructureId,
    StructureKind,
    WordSyntaxError,
    parse_word,
    word_to_text,
)

# Strand bound of the command line (the library has none): the dual structure
# alone builds n(n-1)/2 atoms of length n, which is cubic in n.
MAX_STRANDS = 64


class _Report:
    """Collects output fields; renders as text lines or one JSON object."""

    def __init__(self, as_json: bool) -> None:
        self.as_json = as_json
        self.fields: dict[str, Any] = {}

    def add(self, key: str, value: Any) -> None:
        self.fields[key] = value

    def emit(self) -> None:
        if self.as_json:
            print(json.dumps(self.fields, indent=2))
        else:
            for key, value in self.fields.items():
                print(f"{key}: {value}")


def _element(args: argparse.Namespace, text: str) -> NormalForm:
    """The normal form of a word over the structure that -n and --structure name."""
    if args.strands > MAX_STRANDS:
        raise ValueError(f"at most {MAX_STRANDS} strands are supported, got {args.strands}")
    st = structure_for(StructureId(args.strands, StructureKind(args.structure)))
    return st.nf_from_word(parse_word(text, st.ident))


def _nf_text(st: GarsideStructure, x: NormalForm) -> str:
    return word_to_text(st.nf_to_word(x))


def _simple_texts(st: GarsideStructure, simples: tuple[Simple, ...]) -> list[str]:
    return [_nf_text(st, st.nf_of_simple(s)) for s in simples]


def _cycling_orbit_sizes(elements: dict[NormalForm, NormalForm], max_orbit: int) -> list[int]:
    """Partition a sliding-circuits set into its cycling orbits."""
    remaining = set(elements)
    sizes = []
    while remaining:
        orbit = cycling_orbit(next(iter(remaining)), max_orbit)
        sizes.append(len(remaining.intersection(orbit)))
        remaining.difference_update(orbit)
    return sorted(sizes, reverse=True)


def _cmd_nf(args: argparse.Namespace, report: _Report) -> int:
    x = _element(args, args.word)
    st = x.structure
    report.add("p", x.p)
    report.add("factors", _simple_texts(st, x.factors))
    report.add("inf", x.inf)
    report.add("canonical_length", x.canonical_length)
    report.add("sup", x.sup)
    report.add("word", _nf_text(st, x))
    return 0


def _cmd_invariants(args: argparse.Namespace, report: _Report) -> int:
    x = _element(args, args.word)
    xt, _ = slide_to_circuit(x, args.max_orbit)
    report.add("inf_s", xt.inf)
    report.add("ell_s", xt.canonical_length)
    report.add("sup_s", xt.sup)
    return 0


def _cmd_sc(args: argparse.Namespace, report: _Report) -> int:
    x = _element(args, args.word)
    sc = sliding_circuits(x, args.max_sc, args.max_orbit)
    report.add("sc_size", len(sc))
    report.add("arrows", len(sc.arrows))
    report.add("orbit_sizes", _cycling_orbit_sizes(sc.elements, args.max_orbit))
    rep = next(iter(sc.elements))
    report.add("inf_s", rep.inf)
    report.add("ell_s", rep.canonical_length)
    report.add("sup_s", rep.sup)
    return 0


def _cmd_orbit(args: argparse.Namespace, report: _Report) -> int:
    x = _element(args, args.word)
    xt, _ = slide_to_circuit(x, args.max_orbit)
    report.add("cycling_orbit", len(cycling_orbit(xt, args.max_orbit)))
    report.add("decycling_orbit", len(decycling_orbit(xt, args.max_orbit)))
    return 0


def _cmd_conjugate(args: argparse.Namespace, report: _Report) -> int:
    x = _element(args, args.word)
    y = _element(args, args.other)
    ok, conj = are_conjugate(x, y, args.max_sc, args.max_orbit)
    report.add("verdict", ok)
    if conj is not None:
        report.add("conjugator", _nf_text(x.structure, conj))
    return 0


def _cmd_recognize(args: argparse.Namespace, report: _Report) -> int:
    x = _element(args, args.word)
    st = x.structure
    q = RecognitionQuery(st.ident, 0, args.k, None if args.l is None else 0, args.l)
    result = recognize(x, q, args.max_sc, args.max_orbit)
    report.add("verdict", result.verdict)
    if result.witness is not None:
        w = result.witness
        witness: dict[str, Any] = {
            "location": w.location,
            "n": w.n,
            "element": _nf_text(st, w.element),
            "conjugator": _nf_text(st, w.conjugator),
            "x1": st.ident.atom_name(st.atom_index[w.x1]),
            "a_factors": _simple_texts(st, w.a_factors),
            "b_factors": _simple_texts(st, w.b_factors),
        }
        if w.y1 is not None:
            witness["y1"] = st.ident.atom_name(st.atom_index[w.y1])
        report.add("witness", witness)
        if args.verify:
            report.add("witness_verified", verify_witness(x, w))
    return 0


def _cmd_qp3(args: argparse.Namespace, report: _Report) -> int:
    pa = to_pa_form(parse_word(args.word, StructureId(3, StructureKind.STANDARD)))
    report.add("verdict", qp3(pa))
    report.add("p", pa.p)
    report.add("a", list(pa.a))
    report.add("e", pa.e)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept: building it costs about
    twenty times what parsing one command line does."""
    parser = argparse.ArgumentParser(
        prog="braidqp",
        description="Garside normal forms, sliding circuits and "
        "quasipositivity queries for braid groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    caps = {
        "--max-sc": (DEFAULT_MAX_SC, "cap on sliding-circuits set size"),
        "--max-orbit": (DEFAULT_MAX_ORBIT, "cap on orbit/trajectory length"),
    }
    commands = {}
    # qp3 is fixed to the standard structure on 3 strands and reads no cap
    for name, flags in (
        ("nf", ()),
        ("invariants", ("--max-orbit",)),
        ("sc", ("--max-sc", "--max-orbit")),
        ("orbit", ("--max-orbit",)),
        ("conjugate", ("--max-sc", "--max-orbit")),
        ("recognize", ("--max-sc", "--max-orbit")),
        ("qp3", ()),
    ):
        p = commands[name] = sub.add_parser(name)
        if name != "qp3":
            p.add_argument("--structure", choices=["standard", "dual"], default="standard")
            p.add_argument("-n", "--strands", type=int, default=3)
        p.add_argument("--json", action="store_true")
        for flag in flags:
            default, help_text = caps[flag]
            p.add_argument(flag, type=int, default=default, help=help_text)
        p.add_argument("word")
    commands["conjugate"].add_argument("other")
    p = commands["recognize"]
    p.add_argument("-k", type=int, required=True, help="power of the first class")
    p.add_argument(
        "-l", type=int, default=None, help="power of the second class, if there is one"
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-multiply the witness and check it against the input",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = _Report(args.json)
    try:
        # looked up at call time, so a replaced _cmd_<name> takes effect
        code = globals()[f"_cmd_{args.command}"](args, report)
    except (WordSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceCapExceeded, RecursionError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    report.emit()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
