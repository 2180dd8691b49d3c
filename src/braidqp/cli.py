"""Command-line front end.

Subcommands: nf, invariants, sc, orbit, conjugate, recognize, qp3.  Braid
words use the grammar of the words module.  Exit codes: 0 on success (a NO
verdict is a success), 2 on malformed input (including more than
MAX_STRANDS strands), 3 when a resource cap is hit or the recursion limit or
memory runs out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .conjugacy import (
    DEFAULT_MAX_ORBIT,
    DEFAULT_MAX_SC,
    ResourceCapExceeded,
    are_conjugate,
    cycling,
    cycling_orbit,
    decycling_orbit,
    slide_to_circuit,
    sliding_circuits,
)
from .core import GarsideStructure, NormalForm
from .qp3 import qp3, to_pa_form
from .recognition import (
    RecognitionQuery,
    recognize,
    structure_for,
    verify_witness,
)
from .words import (
    BraidWord,
    StructureId,
    StructureKind,
    WordSyntaxError,
    parse_word,
    word_to_text,
)

MAX_SC_ENV = "BRAIDQP_MAX_SC"
MAX_ORBIT_ENV = "BRAIDQP_MAX_ORBIT"
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


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"invalid integer in ${name}: {raw!r}")


def _structure(args: argparse.Namespace) -> GarsideStructure:
    if args.strands > MAX_STRANDS:
        raise ValueError(f"at most {MAX_STRANDS} strands are supported, got {args.strands}")
    kind = StructureKind(args.structure)
    return structure_for(StructureId(args.strands, kind))


def _parse(st: GarsideStructure, text: str) -> BraidWord:
    return parse_word(text, st.ident)


def _atom_index(st: GarsideStructure, token: str) -> int:
    w = parse_word(token, st.ident)
    if len(w.letters) != 1 or w.g != 0 or w.letters[0][1] != 1:
        raise WordSyntaxError(f"{token!r} is not a single atom", 1)
    return w.letters[0][0]


def _nf_text(st: GarsideStructure, x: NormalForm) -> str:
    return word_to_text(st.nf_to_word(x))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--structure", choices=["standard", "dual"], default="standard"
    )
    sub.add_argument("-n", "--strands", type=int, default=3)
    sub.add_argument("--json", action="store_true")
    sub.add_argument(
        "--max-sc",
        type=int,
        default=None,
        help=f"cap on sliding-circuits set size (env {MAX_SC_ENV})",
    )
    sub.add_argument(
        "--max-orbit",
        type=int,
        default=None,
        help=f"cap on orbit/trajectory length (env {MAX_ORBIT_ENV})",
    )


def _caps(args: argparse.Namespace) -> tuple[int, int]:
    max_sc = args.max_sc
    if max_sc is None:
        max_sc = _env_int(MAX_SC_ENV, DEFAULT_MAX_SC)
    max_orbit = args.max_orbit
    if max_orbit is None:
        max_orbit = _env_int(MAX_ORBIT_ENV, DEFAULT_MAX_ORBIT)
    return max_sc, max_orbit


def _cycling_orbit_sizes(sc_elements: dict[NormalForm, NormalForm]) -> list[int]:
    """Partition a sliding-circuits set into its cycling orbits."""
    remaining = set(sc_elements)
    sizes = []
    while remaining:
        start = next(iter(remaining))
        size = 0
        z = start
        while True:
            if z in remaining:
                remaining.discard(z)
                size += 1
            z = cycling(z) if z.factors else z
            if z == start:
                break
        sizes.append(size)
    return sorted(sizes, reverse=True)


def _cmd_nf(args: argparse.Namespace, report: _Report) -> int:
    st = _structure(args)
    x = st.nf_from_word(_parse(st, args.word))
    report.add("p", x.p)
    report.add("factors", [word_to_text(st.nf_to_word(st.nf_of_simple(f))) for f in x.factors])
    report.add("inf", x.inf)
    report.add("canonical_length", x.canonical_length)
    report.add("sup", x.sup)
    report.add("word", _nf_text(st, x))
    return 0


def _cmd_invariants(args: argparse.Namespace, report: _Report) -> int:
    st = _structure(args)
    _, max_orbit = _caps(args)
    x = st.nf_from_word(_parse(st, args.word))
    xt, _ = slide_to_circuit(x, max_orbit)
    report.add("inf_s", xt.inf)
    report.add("ell_s", xt.canonical_length)
    report.add("sup_s", xt.sup)
    return 0


def _cmd_sc(args: argparse.Namespace, report: _Report) -> int:
    st = _structure(args)
    max_sc, max_orbit = _caps(args)
    x = st.nf_from_word(_parse(st, args.word))
    sc = sliding_circuits(x, max_sc, max_orbit)
    report.add("sc_size", len(sc))
    report.add("arrows", len(sc.arrows))
    report.add("orbit_sizes", _cycling_orbit_sizes(sc.elements))
    rep = next(iter(sc.elements))
    report.add("inf_s", rep.inf)
    report.add("ell_s", rep.canonical_length)
    report.add("sup_s", rep.sup)
    return 0


def _cmd_orbit(args: argparse.Namespace, report: _Report) -> int:
    st = _structure(args)
    _, max_orbit = _caps(args)
    x = st.nf_from_word(_parse(st, args.word))
    xt, _ = slide_to_circuit(x, max_orbit)
    report.add("cycling_orbit", len(cycling_orbit(xt, max_orbit)))
    report.add("decycling_orbit", len(decycling_orbit(xt, max_orbit)))
    return 0


def _cmd_conjugate(args: argparse.Namespace, report: _Report) -> int:
    st = _structure(args)
    max_sc, max_orbit = _caps(args)
    x = st.nf_from_word(_parse(st, args.word))
    y = st.nf_from_word(_parse(st, args.other))
    ok, conj = are_conjugate(x, y, max_sc, max_orbit)
    report.add("verdict", ok)
    if conj is not None:
        report.add("conjugator", _nf_text(st, conj))
    return 0


def _cmd_recognize(args: argparse.Namespace, report: _Report) -> int:
    st = _structure(args)
    max_sc, max_orbit = _caps(args)
    word = _parse(st, args.word)
    q = RecognitionQuery(
        st.ident,
        _atom_index(st, args.x),
        args.k,
        _atom_index(st, args.y) if args.y is not None else None,
        args.l,
    )
    x = st.nf_from_word(word)
    result = recognize(x, q, max_sc, max_orbit)
    report.add("verdict", result.verdict)
    if result.witness is not None:
        w = result.witness
        witness: dict[str, Any] = {
            "location": w.location,
            "n": w.n,
            "element": _nf_text(st, w.element),
            "conjugator": _nf_text(st, w.conjugator),
            "x1": st.ident.atom_name(st.atom_index[w.x1]),
            "a_factors": [
                word_to_text(st.nf_to_word(st.nf_of_simple(f))) for f in w.a_factors
            ],
            "b_factors": [
                word_to_text(st.nf_to_word(st.nf_of_simple(f))) for f in w.b_factors
            ],
        }
        if w.y1 is not None:
            witness["y1"] = st.ident.atom_name(st.atom_index[w.y1])
        report.add("witness", witness)
        if args.verify:
            report.add("witness_verified", verify_witness(x, w))
    return 0


def _cmd_qp3(args: argparse.Namespace, report: _Report) -> int:
    if args.strands != 3 or args.structure != "standard":
        raise WordSyntaxError("qp3 requires the standard structure on 3 strands", 0)
    st = _structure(args)
    word = _parse(st, args.word)
    pa = to_pa_form(word)
    report.add("verdict", qp3(pa))
    report.add("p", pa.p)
    report.add("a", list(pa.a))
    report.add("e", pa.e)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidqp",
        description="Garside normal forms, sliding circuits and "
        "quasipositivity queries for braid groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, extra in (
        ("nf", _cmd_nf, ()),
        ("invariants", _cmd_invariants, ()),
        ("sc", _cmd_sc, ()),
        ("orbit", _cmd_orbit, ()),
        ("conjugate", _cmd_conjugate, ("other",)),
        ("recognize", _cmd_recognize, ()),
        ("qp3", _cmd_qp3, ()),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.add_argument("word")
        for arg in extra:
            p.add_argument(arg)
        p.set_defaults(fn=fn)
        if name == "recognize":
            p.add_argument("-x", required=True, help="atom token, e.g. 1 or a31")
            p.add_argument("-k", type=int, required=True)
            p.add_argument("-y", default=None)
            p.add_argument("-l", type=int, default=None)
            p.add_argument(
                "--verify",
                action="store_true",
                help="re-multiply the witness and check it against the input",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = _Report(args.json)
    try:
        code = args.fn(args, report)
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
