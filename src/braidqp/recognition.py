"""Membership in one or two conjugacy classes of atom powers.

Decides whether a braid lies in (x^k)^G (a single class of k-th powers of an
atom) or in the product (x^k)^G (y^l)^G, for either Garside structure.  The
single-class question is answered by pattern-matching the left normal form of
the element itself; the two-class question slides the element to a sliding
circuit.  A positive circuit element spells two atoms (k = l = 1) or is tested
for conjugacy to explicit atom-power products; otherwise a conjugate whose
normal form exhibits the product shape is searched for.  Both structures share
this one pipeline and differ only in the search space: for the dual structure
one cycling orbit suffices, for the standard structure the whole
sliding-circuits set is searched.  Every YES comes with a witness that
re-multiplies to the input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .artin import artin_structure
from .conjugacy import (
    DEFAULT_MAX_ORBIT,
    DEFAULT_MAX_SC,
    cycling,
    initial_factor,
    slide_to_circuit,
    sliding_circuits,
)
from .core import GarsideStructure, NormalForm, Simple
from .dual import dual_structure
from .words import BraidWord, StructureId, StructureKind


@dataclass(frozen=True)
class RecognitionQuery:
    """Membership query: is the element in (x^k)^G, or (x^k)^G (y^l)^G?"""

    structure: StructureId
    x: int  # atom index
    k: int
    y: int | None = None
    l: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if (self.y is None) != (self.l is None):
            raise ValueError("y and l must be given together")
        if self.l is not None and self.l < 1:
            raise ValueError("l must be a positive integer")
        for a in (self.x, self.y):
            if a is not None and not 0 <= a < self.structure.num_atoms:
                raise ValueError(f"atom index {a} out of range")


@dataclass(frozen=True)
class FormWitness:
    """A conjugate of the query element in the target shape.

    The element equals g^{-n} . A_n ... A_1 . x1^k . B_1 ... B_n . y1^l
    (g the Garside element, y1 absent for single-class queries), and
    ``conjugator`` maps the original input onto it.
    """

    element: NormalForm
    conjugator: NormalForm
    location: str  # 'input', 'conjugacy', 'orbit' or 'sc'
    n: int
    k: int
    x1: Simple
    a_factors: tuple[Simple, ...]  # (A_1, ..., A_n)
    b_factors: tuple[Simple, ...]  # (B_1, ..., B_n)
    l: int = 0
    y1: Simple | None = None


@dataclass(frozen=True)
class RecognitionResult:
    verdict: bool
    witness: FormWitness | None = None


def structure_for(ident: StructureId) -> GarsideStructure:
    if ident.kind is StructureKind.STANDARD:
        return artin_structure(ident.strands)
    return dual_structure(ident.strands)


def rebuild_witness(w: FormWitness) -> NormalForm:
    """Multiply the witness factors back together."""
    st = w.element.structure
    out = st.nf(-w.n)
    for a in reversed(w.a_factors):
        out = st.nf_right_multiply(out, a)
    for _ in range(w.k):
        out = st.nf_right_multiply(out, w.x1)
    for b in w.b_factors:
        out = st.nf_right_multiply(out, b)
    if w.y1 is not None:
        for _ in range(w.l):
            out = st.nf_right_multiply(out, w.y1)
    return out


def verify_witness(original: NormalForm, w: FormWitness) -> bool:
    """Soundness check: factors re-multiply to the conjugated input."""
    st = original.structure
    return (
        rebuild_witness(w) == w.element
        and st.nf_conjugate(original, w.conjugator) == w.element
    )


# ----- normal-form pattern matchers -------------------------------------


def _constant_atom_run(st: GarsideStructure, factors: tuple[Simple, ...]) -> Simple | None:
    """The common atom of a run of identical atom factors, if any."""
    if len(set(factors)) == 1 and factors[0] in st.atom_index:
        return factors[0]
    return None


def _run_candidates(st: GarsideStructure, run: tuple[Simple, ...]) -> list[Simple]:
    """Standard shape: the atoms x1 may be, given the run of k-1 copies of it."""
    if not run:
        return list(st.atoms)
    x1 = _constant_atom_run(st, run)
    return [] if x1 is None else [x1]


def _ladder_holds(
    st: GarsideStructure, a_factors: tuple[Simple, ...], b_factors: tuple[Simple, ...]
) -> bool:
    """A_i g^{i-1} B_i = g^i for every i, by explicit multiplication."""
    for i, (a, b) in enumerate(zip(a_factors, b_factors), start=1):
        t = st.nf_mult_delta(st.nf_of_simple(a), i - 1)
        t = st.nf_right_multiply(t, b)
        if t != st.nf(i):
            return False
    return True


def match_power_form(xt: NormalForm, q: RecognitionQuery) -> FormWitness | None:
    """Match the single-class shape against a left normal form.

    Dual: g^{-n} . A_n ... A_1 . x1^k . B_1 ... B_n (n >= 0).
    Standard: either x1^k, or the same shape with the x-run shortened to
    k-1 copies and x1 folded into B_1, plus x1 being a suffix of A_1.
    On two strands, in both structures, the shape is Delta^k itself.
    """
    st = xt.structure
    k = q.k
    n = -xt.p
    identity_conj = st.nf(0)
    if st.ident.strands == 2:
        # the atom is the central Garside element: x1^k is its own class
        if xt.p != k or xt.factors:
            return None
        return FormWitness(xt, identity_conj, "input", 0, k, st.atoms[0], (), ())
    if n < 0:
        return None  # inf >= 1: no conjugate of an atom power has that form
    if n == 0:
        x1 = _constant_atom_run(st, xt.factors) if len(xt.factors) == k else None
        if x1 is None:
            return None
        return FormWitness(xt, identity_conj, "input", 0, k, x1, (), ())
    a_factors = tuple(reversed(xt.factors[:n]))  # (A_1, ..., A_n)

    if st.ident.kind is StructureKind.DUAL:
        if len(xt.factors) != 2 * n + k:
            return None
        x1 = _constant_atom_run(st, xt.factors[n : n + k])
        b_factors = xt.factors[n + k :]
        if x1 is None or not _ladder_holds(st, a_factors, b_factors):
            return None
        return FormWitness(xt, identity_conj, "input", n, k, x1, a_factors, b_factors)

    # standard structure
    if len(xt.factors) != 2 * n + k - 1:
        return None
    fused = xt.factors[n + k - 1]  # the factor x1 B_1
    rest_b = xt.factors[n + k :]  # B_2 .. B_n
    for x1 in _run_candidates(st, xt.factors[n : n + k - 1]):
        if not st.is_prefix(x1, fused):
            continue
        if not st.is_suffix(x1, a_factors[0]):  # x1 divides A_1 on the right
            continue
        b_factors = (st.left_quotient(x1, fused),) + rest_b
        if not _ladder_holds(st, a_factors, b_factors):
            continue
        return FormWitness(xt, identity_conj, "input", n, k, x1, a_factors, b_factors)
    return None


def match_product_form(xt: NormalForm, q: RecognitionQuery) -> FormWitness | None:
    """Match the two-class shape against a left normal form (n >= 1)."""
    st = xt.structure
    assert q.y is not None and q.l is not None
    k, l = q.k, q.l
    n = -xt.p
    if n < 1:
        return None
    identity_conj = st.nf(0)
    a_factors = tuple(reversed(xt.factors[:n]))  # (A_1, ..., A_n)

    if st.ident.kind is StructureKind.DUAL:
        if len(xt.factors) != 2 * n + k + l:
            return None
        x1 = _constant_atom_run(st, xt.factors[n : n + k])
        y1 = _constant_atom_run(st, xt.factors[2 * n + k :])
        if x1 is None or y1 is None:
            return None
        b_factors = xt.factors[n + k : 2 * n + k]
        if not _ladder_holds(st, a_factors, b_factors):
            return None
        return FormWitness(
            xt, identity_conj, "input", n, k, x1, a_factors, b_factors, l, y1
        )

    # standard structure
    if len(xt.factors) != 2 * n + k + l - 2:
        return None
    x_candidates = _run_candidates(st, xt.factors[n : n + k - 1])
    y_candidates = _run_candidates(st, xt.factors[2 * n + k - 1 :])

    if n == 1:
        fused = xt.factors[k]  # the factor x1 B_1 y1
        for x1 in x_candidates:
            if not st.is_prefix(x1, fused):
                continue
            rest = st.left_quotient(x1, fused)
            for y1 in y_candidates:
                if not st.is_suffix(y1, rest):
                    continue
                b1 = st.right_quotient(rest, y1)
                # A_1 = tau^{-1}(y1) A''_1 x1
                a1 = a_factors[0]
                if not st.is_suffix(x1, a1):
                    continue
                if not st.is_prefix(st.tau(y1, -1), st.right_quotient(a1, x1)):
                    continue
                if not _ladder_holds(st, a_factors, (b1,)):
                    continue
                return FormWitness(
                    xt, identity_conj, "input", 1, k, x1, a_factors, (b1,), l, y1
                )
        return None

    head = xt.factors[n + k - 1]  # the factor x1 B_1
    tail = xt.factors[2 * n + k - 2]  # the factor B_n y1
    mid_b = xt.factors[n + k : 2 * n + k - 2]  # B_2 .. B_{n-1}
    for x1 in x_candidates:
        if not st.is_prefix(x1, head):
            continue
        if not st.is_suffix(x1, a_factors[0]):  # condition: A_1 ends with x1
            continue
        b1 = st.left_quotient(x1, head)
        for y1 in y_candidates:
            if not st.is_suffix(y1, tail):
                continue
            # condition: A_n starts with tau^{-n}(y1)
            if not st.is_prefix(st.tau(y1, -n), a_factors[-1]):
                continue
            b_factors = (b1,) + mid_b + (st.right_quotient(tail, y1),)
            if not _ladder_holds(st, a_factors, b_factors):
                continue
            return FormWitness(
                xt, identity_conj, "input", n, k, x1, a_factors, b_factors, l, y1
            )
    return None


def summit_length_filter(xt: NormalForm, q: RecognitionQuery) -> bool | None:
    """Definitive NO when the summit canonical length rules membership out.

    Applies only to two-class queries with negative summit inf; membership
    forces the canonical length to be exactly -2 inf + k + l for the dual
    structure (minus 2 for the standard one).
    """
    assert q.l is not None
    if xt.p >= 0:
        return None
    required = -2 * xt.p + q.k + q.l
    if xt.structure.ident.kind is StructureKind.STANDARD:
        required -= 2
    return False if len(xt.factors) != required else None


# ----- the recognizer ---------------------------------------------------


def _atom_power_product(st: GarsideStructure, q: RecognitionQuery, xi: int, yi: int):
    out = st.nf(0)
    for _ in range(q.k):
        out = st.nf_right_multiply(out, st.atoms[xi])
    assert q.l is not None
    for _ in range(q.l):
        out = st.nf_right_multiply(out, st.atoms[yi])
    return out


def _conjugacy_branch(
    xt: NormalForm,
    to_circuit: NormalForm,
    q: RecognitionQuery,
    max_sc: int,
    max_orbit: int,
) -> RecognitionResult:
    """Positive summit: test conjugacy to x1^k y1^l over all atom pairs."""
    st = xt.structure
    sc = sliding_circuits(xt, max_sc, max_orbit)
    for xi in range(len(st.atoms)):
        for yi in range(len(st.atoms)):
            target = _atom_power_product(st, q, xi, yi)
            rep, wt = slide_to_circuit(target, max_orbit)
            if rep not in sc.elements:
                continue
            # x_nf --to_circuit--> xt --sc witness--> rep <--wt-- target
            conj = st.nf_multiply(to_circuit, sc.elements[rep])
            conj = st.nf_multiply(conj, st.nf_inverse(wt))
            assert q.l is not None
            w = FormWitness(
                target,
                conj,
                "conjugacy",
                0,
                q.k,
                st.atoms[xi],
                (),
                (),
                q.l,
                st.atoms[yi],
            )
            return RecognitionResult(True, w)
    return RecognitionResult(False)


def _summit_conjugates(
    xt: NormalForm, max_sc: int, max_orbit: int
) -> Iterator[tuple[NormalForm, NormalForm, str]]:
    """Conjugates of a circuit element to search for the product shape.

    Yields (conjugate, conjugator from xt, location).  For the dual structure
    one cycling orbit of xt suffices; for the standard structure the whole
    sliding-circuits set is needed.
    """
    st = xt.structure
    if st.ident.kind is StructureKind.STANDARD:
        for z, wz in sliding_circuits(xt, max_sc, max_orbit).elements.items():
            yield z, wz, "sc"
        return
    z, cum = xt, st.nf(0)
    while True:
        yield z, cum, "orbit"
        cum = st.nf_right_multiply(cum, initial_factor(z))
        z = cycling(z)
        if z == xt:
            return


def recognize(
    x: BraidWord | NormalForm,
    q: RecognitionQuery,
    max_sc: int = DEFAULT_MAX_SC,
    max_orbit: int = DEFAULT_MAX_ORBIT,
) -> RecognitionResult:
    """Decide membership of x in the class or class product of the query.

    An algebraic length other than k (+ l) is NO at once.  Single-class
    queries read the answer off the normal form of the input.  Two-class
    queries slide to a circuit.  A positive circuit element answers YES at
    once when k = l = 1 (it spells a product of two atoms) and is otherwise
    tested for conjugacy to explicit atom-power products; a negative one has
    its summit conjugates pattern-matched.
    """
    st = structure_for(q.structure)
    if not isinstance(x, NormalForm):
        x = st.nf_from_word(x)
    elif x.structure.ident != q.structure:
        raise ValueError("element and query are over different structures")
    # atoms have norm 1 and conjugation keeps the algebraic length
    if st.nf_algebraic_length(x) != q.k + (q.l or 0):
        return RecognitionResult(False)
    if q.y is None:
        w = match_power_form(x, q)
        return RecognitionResult(w is not None, w)

    xt, c = slide_to_circuit(x, max_orbit)
    if xt.p >= 0:
        if q.k == q.l == 1:
            # positive of algebraic length 2: a product a b of two atoms, and
            # every atom is conjugate to every other one
            simples = (st.delta,) * xt.p + xt.factors
            a, b = (st.atoms[i] for f in simples for i in st.spell_simple(f))
            w = FormWitness(xt, c, "conjugacy", 0, 1, a, (), (), 1, b)
            return RecognitionResult(True, w)
        return _conjugacy_branch(xt, c, q, max_sc, max_orbit)
    if summit_length_filter(xt, q) is False:
        return RecognitionResult(False)
    for z, wz, location in _summit_conjugates(xt, max_sc, max_orbit):
        w = match_product_form(z, q)
        if w is not None:
            conj = st.nf_multiply(c, wz)
            return RecognitionResult(True, replace(w, conjugator=conj, location=location))
    return RecognitionResult(False)
