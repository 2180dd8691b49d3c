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


def _cmd_nf(args: argparse.Namespace) -> dict[str, Any]:
    x = _element(args, args.word)
    st = x.structure
    return {
        "p": x.p,
        "factors": _simple_texts(st, x.factors),
        "inf": x.inf,
        "canonical_length": x.canonical_length,
        "sup": x.sup,
        "word": _nf_text(st, x),
    }


def _cmd_invariants(args: argparse.Namespace) -> dict[str, Any]:
    x = _element(args, args.word)
    xt, _ = slide_to_circuit(x, args.max_orbit)
    return {"inf_s": xt.inf, "ell_s": xt.canonical_length, "sup_s": xt.sup}


def _cmd_sc(args: argparse.Namespace) -> dict[str, Any]:
    x = _element(args, args.word)
    sc = sliding_circuits(x, args.max_sc, args.max_orbit)
    rep = next(iter(sc.elements))
    return {
        "sc_size": len(sc),
        "arrows": len(sc.arrows),
        "orbit_sizes": _cycling_orbit_sizes(sc.elements, args.max_orbit),
        "inf_s": rep.inf,
        "ell_s": rep.canonical_length,
        "sup_s": rep.sup,
    }


def _cmd_orbit(args: argparse.Namespace) -> dict[str, Any]:
    x = _element(args, args.word)
    xt, _ = slide_to_circuit(x, args.max_orbit)
    return {
        "cycling_orbit": len(cycling_orbit(xt, args.max_orbit)),
        "decycling_orbit": len(decycling_orbit(xt, args.max_orbit)),
    }


def _cmd_conjugate(args: argparse.Namespace) -> dict[str, Any]:
    x = _element(args, args.word)
    y = _element(args, args.other)
    ok, conj = are_conjugate(x, y, args.max_sc, args.max_orbit)
    out: dict[str, Any] = {"verdict": ok}
    if conj is not None:
        out["conjugator"] = _nf_text(x.structure, conj)
    return out


def _cmd_recognize(args: argparse.Namespace) -> dict[str, Any]:
    x = _element(args, args.word)
    st = x.structure
    q = RecognitionQuery(st.ident, 0, args.k, None if args.l is None else 0, args.l)
    result = recognize(x, q, args.max_sc, args.max_orbit)
    out: dict[str, Any] = {"verdict": result.verdict}
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
        out["witness"] = witness
        if args.verify:
            out["witness_verified"] = verify_witness(x, w)
    return out


def _cmd_qp3(args: argparse.Namespace) -> dict[str, Any]:
    pa = to_pa_form(parse_word(args.word, StructureId(3, StructureKind.STANDARD)))
    return {"verdict": qp3(pa), "p": pa.p, "a": list(pa.a), "e": pa.e}


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
    try:
        # looked up at call time, so a replaced _cmd_<name> takes effect
        fields = globals()[f"_cmd_{args.command}"](args)
    except (WordSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceCapExceeded, RecursionError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(fields, indent=2))
    else:
        for key, value in fields.items():
            print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
