"""Membership in one or two conjugacy classes of atom powers.

Decides whether a braid lies in (x^k)^G (a single class of k-th powers of an
atom) or in the product (x^k)^G (y^l)^G, for either Garside structure.  The
single-class question is read off the element's own left normal form by one
shape matcher for both structures, which computes the B factors of the
ladder A_i g^{i-1} B_i = g^i from the A factors.  The two-class question
slides the element to a sliding circuit.  A positive circuit element spells
two atoms (k = l = 1), or the products x1^k y1^l go, in atom-pair order, to
conjugacy.conjugate_to_first, the search are_conjugate uses.  A negative one
is decided in the dual structure, where one cycling orbit of a circuit
element holds a conjugate whose normal form shows the product shape whenever
the element lies in the product (Orevkov, arXiv:1406.0544): a standard query
that passes the summit-length filter is translated to the dual structure by
word, decided there, and its witness mapped back.  Every YES comes with a
witness whose factors satisfy the ladder and re-multiply to a conjugate of
the input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .artin import artin_structure
from .conjugacy import (
    DEFAULT_MAX_ORBIT,
    DEFAULT_MAX_SC,
    ResourceCapExceeded,
    conjugate_to_first,
    cycling,
    initial_factor,
    slide_to_circuit,
)
from .core import GarsideStructure, NormalForm, Simple, inverse_perm, mult
from .dual import dual_structure
from .words import (
    BraidWord,
    StructureId,
    StructureKind,
    band_root,
    to_dual,
    to_standard,
)


@dataclass(frozen=True)
class RecognitionQuery:
    """Membership query: is the element in (x^k)^G, or (x^k)^G (y^l)^G?

    The atom indices x and y are validated but never change the verdict:
    every atom is conjugate to every other one, so a witness names whichever
    atoms it finds.  recognize reads y only to tell one class from two, and
    a standard two-class query is decided on a dual query with atom 0.
    """

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
    (g the Garside element, y1 absent for single-class queries), with
    A_i g^{i-1} B_i = g^i for every i, and ``conjugator`` maps the original
    input onto it.  ``location`` names what found it: the input's own normal
    form, the positive-summit branch, or the cycling-orbit walk (for a
    standard two-class query, the walk in the dual structure).
    """

    element: NormalForm
    conjugator: NormalForm
    location: str  # 'input', 'conjugacy' or 'orbit'
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
    """Soundness check: the factors satisfy the ladder of the shape and
    re-multiply to the conjugated input."""
    st = original.structure
    return (
        len(w.a_factors) == w.n
        and tuple(w.b_factors) == _ladder_b_factors(st, w.a_factors)
        and rebuild_witness(w) == w.element
        and st.nf_conjugate(original, w.conjugator) == w.element
    )


# ----- normal-form pattern matchers -------------------------------------


def _constant_atom_run(st: GarsideStructure, factors: tuple[Simple, ...]) -> Simple | None:
    """The common atom of a run of identical atom factors, if any."""
    if len(set(factors)) == 1 and factors[0] in st.atom_index:
        return factors[0]
    return None


def _ladder_b_factors(st: GarsideStructure, a_factors: tuple[Simple, ...]) -> tuple[Simple, ...]:
    """The B_i with A_i g^{i-1} B_i = g^i for every i: since A_i g^{i-1} is
    g^{i-1} tau^{i-1}(A_i), B_i is the complement of tau^{i-1}(A_i)."""
    return tuple(st.complement(st.tau(a, i % st.delta_order)) for i, a in enumerate(a_factors))


def _match_shape(xt: NormalForm, k: int, l: int) -> FormWitness | None:
    """Read g^{-n} . A_n ... A_1 . x1^k . B_1 ... B_n [. y1^l] off a left normal form.

    The x1-run is k whole factors, or, for a single class (l = 0) with
    n >= 1, k-1 factors with the last x1 fused into B_1 (the left normal
    form of a conjugate of a standard atom power): the fused form has one
    factor fewer, so its length tells the two apart.  The y1-run, if any, is
    l whole factors.  The A factors fix the B factors, and a fused x1 is the
    one simple with x1 B_1 equal to its factor.
    """
    st = xt.structure
    n = -xt.p
    factors = xt.factors
    if n < 0:
        return None  # inf >= 1: no conjugate of an atom power has that form
    fused = l == 0 and n >= 1 and len(factors) == 2 * n + k - 1
    if not fused and len(factors) != 2 * n + k + l:
        return None
    a_factors = tuple(reversed(factors[:n]))  # (A_1, ..., A_n)
    b_factors = _ladder_b_factors(st, a_factors)
    y1 = None
    if fused:
        head = factors[n + k - 1]  # the factor x1 B_1
        x1 = mult(head, inverse_perm(b_factors[0]))
        ok = (
            x1 in st.atom_index
            and factors[n : n + k - 1] == (x1,) * (k - 1)
            and st.is_prefix(x1, head)
            and factors[n + k :] == b_factors[1:]
        )
    else:
        x1 = _constant_atom_run(st, factors[n : n + k])
        y1 = _constant_atom_run(st, factors[2 * n + k :]) if l else None
        ok = x1 is not None and (not l or y1 is not None)
        ok = ok and factors[n + k : 2 * n + k] == b_factors
    if not ok:
        return None
    return FormWitness(xt, st.nf(0), "input", n, k, x1, a_factors, b_factors, l, y1)


def match_power_form(xt: NormalForm, q: RecognitionQuery) -> FormWitness | None:
    """Match the single-class shape g^{-n} . A_n ... A_1 . x1^k . B_1 ... B_n.

    On two strands, in both structures, the shape is Delta^k itself.
    """
    st = xt.structure
    if st.ident.strands == 2:
        # the atom is the central Garside element: x1^k is its own class
        if xt.p != q.k or xt.factors:
            return None
        return FormWitness(xt, st.nf(0), "input", 0, q.k, st.atoms[0], (), ())
    return _match_shape(xt, q.k, 0)


def match_product_form(xt: NormalForm, q: RecognitionQuery) -> FormWitness | None:
    """Match the dual two-class shape against a left normal form (n >= 1).

    g^{-n} . A_n ... A_1 . x1^k . B_1 ... B_n . y1^l, read factor by factor.
    Standard queries are decided in the dual structure, so only the dual
    shape is matched.
    """
    if xt.structure.ident.kind is not StructureKind.DUAL:
        raise ValueError("the two-class shape is matched in the dual structure")
    assert q.l is not None
    if xt.p >= 0:
        return None  # the shape needs n >= 1 here
    return _match_shape(xt, q.k, q.l)


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


def _conjugacy_branch(
    xt: NormalForm,
    to_circuit: NormalForm,
    q: RecognitionQuery,
    max_sc: int,
    max_orbit: int,
) -> RecognitionResult:
    """Positive summit: conjugate_to_first looks for xt among the products
    x1^k y1^l, in atom-pair order, built from atom powers read once."""
    st = xt.structure
    assert q.l is not None
    m = len(st.atoms)
    power = {e: [st.nf_from_word(BraidWord(st.ident, 0, ((i, 1),) * e)) for i in range(m)]
             for e in (q.k, q.l)}

    def target(index: int) -> NormalForm:
        i, j = divmod(index, m)
        return st.nf_multiply(power[q.k][i], power[q.l][j])

    hit = conjugate_to_first(xt, to_circuit, map(target, range(m * m)), max_sc, max_orbit)
    if hit is None:
        return RecognitionResult(False)
    index, conj = hit
    x1, y1 = (st.atoms[i] for i in divmod(index, m))
    w = FormWitness(target(index), conj, "conjugacy", 0, q.k, x1, (), (), q.l, y1)
    return RecognitionResult(True, w)


def _summit_conjugates(
    xt: NormalForm, max_orbit: int
) -> Iterator[tuple[NormalForm, NormalForm]]:
    """The cycling orbit of a dual circuit element, each with its conjugator.

    Yields (conjugate, conjugator from xt); one cycling orbit suffices in the
    dual structure.  Raises ResourceCapExceeded past max_orbit elements.
    """
    st = xt.structure
    z, cum = xt, st.nf(0)
    for _ in range(max_orbit):
        yield z, cum
        cum = st.nf_right_multiply(cum, initial_factor(z))
        z = cycling(z)
        if z == xt:
            return
    raise ResourceCapExceeded("cycling orbit", max_orbit)


def _standard_witness(st: GarsideStructure, w: FormWitness, c: NormalForm) -> FormWitness:
    """Map a dual two-class witness back to the standard structure.

    The dual element is z = P^{-1} a^k P b^l with P = B_1 ... B_n (the ladder
    gives g^{-n} A_n ... A_1 = P^{-1}).  With a = R sigma_s R^{-1} and
    b = R' sigma_s' R'^{-1}, conjugating z by R' gives
    Q^{-1} sigma_s^k Q sigma_s'^l for Q = R^{-1} P R'.  Delta^2 is central,
    so Q may drop an even Garside power and becomes positive: its simples,
    Delta first if its power is odd, are the new B_i, and the ladder
    A_i Delta^{i-1} B_i = Delta^i fixes the new A_i = tau^{-i}(complement(B_i)),
    as B_i^{-1} = complement(B_i) Delta^{-1}.  ``c`` maps the
    standard input onto the element that was translated.
    """
    du = w.element.structure
    pairs = du.ident.atom_pairs()
    (t, s), (t2, s2) = pairs[du.atom_index[w.x1]], pairs[du.atom_index[w.y1]]

    def standard(x: NormalForm) -> NormalForm:
        return st.nf_from_word(to_standard(du.nf_to_word(x)))

    def root(t: int, s: int) -> NormalForm:
        return st.nf_from_word(BraidWord(st.ident, 0, tuple(band_root(t, s))))

    p_dual = du.nf(0)
    for b in w.b_factors:
        p_dual = du.nf_right_multiply(p_dual, b)
    root_y = root(t2, s2)
    q_nf = st.nf_multiply(st.nf_inverse(root(t, s)), standard(p_dual))
    q_nf = st.nf_multiply(q_nf, root_y)
    b_factors = (st.delta,) * (q_nf.p % 2) + q_nf.factors
    a_factors = tuple(
        st.tau(st.complement(b), -i % st.delta_order) for i, b in enumerate(b_factors, start=1)
    )
    conj = st.nf_multiply(st.nf_multiply(c, standard(w.conjugator)), root_y)
    out = FormWitness(
        st.nf(0), conj, w.location, len(b_factors), w.k, st.atoms[s - 1],
        a_factors, b_factors, w.l, st.atoms[s2 - 1],
    )
    return replace(out, element=rebuild_witness(out))


def _two_class(
    x: NormalForm, q: RecognitionQuery, max_sc: int, max_orbit: int
) -> RecognitionResult:
    """The two-class pipeline: slide to a circuit, then decide.

    A positive circuit element goes to the positive-summit branch, a negative
    one through the summit-length filter and then, in the dual structure, to
    the cycling-orbit walk.  A standard element the filter passes is decided
    in the dual structure and its witness mapped back.
    """
    st = x.structure
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
    if st.ident.kind is StructureKind.STANDARD:
        du = dual_structure(st.ident.strands)
        dual_q = RecognitionQuery(du.ident, 0, q.k, 0, q.l)
        xd = du.nf_from_word(to_dual(st.nf_to_word(xt)))
        res = _two_class(xd, dual_q, max_sc, max_orbit)
        if res.witness is None:
            return res
        return RecognitionResult(True, _standard_witness(st, res.witness, c))
    for z, wz in _summit_conjugates(xt, max_orbit):
        w = match_product_form(z, q)
        if w is not None:
            conj = st.nf_multiply(c, wz)
            return RecognitionResult(True, replace(w, conjugator=conj, location="orbit"))
    return RecognitionResult(False)


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
    once when k = l = 1 (it spells a product of two atoms); otherwise its
    sliding-circuits set is grown until it meets the circuit element of some
    x1^k y1^l.  A negative one that passes the summit-length filter has its
    dual cycling orbit pattern-matched, a standard element after translation
    to the dual structure.  max_sc bounds the elements that growth
    enumerates, so a YES met first returns while a NO raises whenever the
    whole set is larger; max_orbit bounds every sliding trajectory and the
    orbit walk.  Past either cap, ResourceCapExceeded is raised.
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
    return _two_class(x, q, max_sc, max_orbit)
