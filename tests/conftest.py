"""Shared fixtures: structures, random-word helpers and the reference oracles."""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest

from braidqp import (
    Arrow,
    BraidWord,
    DualStructure,
    FormWitness,
    GarsideStructure,
    NormalForm,
    RecognitionQuery,
    RecognitionResult,
    ResourceCapExceeded,
    Simple,
    SlidingCircuits,
    StructureKind,
    artin_structure,
    dual_structure,
    final_factor,
    in_sliding_circuit,
    initial_factor,
    inverse_perm,
    mult,
    preferred_prefix,
    slide_to_circuit,
    sliding_circuits,
    summit_length_filter,
)


@pytest.fixture(scope="session")
def std3():
    return artin_structure(3)


@pytest.fixture(scope="session")
def std4():
    return artin_structure(4)


@pytest.fixture(scope="session")
def dual3():
    return dual_structure(3)


@pytest.fixture(scope="session")
def dual4():
    return dual_structure(4)


@pytest.fixture(scope="session")
def dual5():
    return dual_structure(5)


def random_word(
    rng: random.Random,
    st: GarsideStructure,
    length: int,
    signed: bool = True,
) -> BraidWord:
    letters = tuple(
        (rng.randrange(len(st.atoms)), rng.choice((1, -1)) if signed else 1)
        for _ in range(length)
    )
    return BraidWord(st.ident, 0, letters)


def random_nf(
    rng: random.Random, st: GarsideStructure, length: int, signed: bool = True
) -> NormalForm:
    return st.nf_from_word(random_word(rng, st, length, signed))


# ----- divisibility, atom sets and word algebra that only the tests use


def is_suffix(st: GarsideStructure, a: Simple, b: Simple) -> bool:
    """a divides b on the right within the simple interval."""
    q = mult(b, inverse_perm(a))
    return st.is_simple_payload(q) and st.norm(a) + st.norm(q) == st.norm(b)


def right_quotient(st: GarsideStructure, b: Simple, a: Simple) -> Simple:
    """The simple b a^{-1}; the caller guarantees a is a suffix of b."""
    return mult(b, inverse_perm(a))


def atom_suffix(st: GarsideStructure, atom: int, s: Simple) -> bool:
    return is_suffix(st, st.atoms[atom], s)


def starting_set(st: GarsideStructure, a: Simple) -> frozenset[int]:
    return frozenset(i for i in range(len(st.atoms)) if st.atom_prefix(i, a))


def finishing_set(st: GarsideStructure, a: Simple) -> frozenset[int]:
    return frozenset(i for i in range(len(st.atoms)) if atom_suffix(st, i, a))


def right_complementary_set(st: GarsideStructure, a: Simple) -> frozenset[int]:
    return starting_set(st, st.complement(a))


def left_complementary_set(st: GarsideStructure, a: Simple) -> frozenset[int]:
    return finishing_set(st, st.complement_inv(a))


def is_left_weighted(st: GarsideStructure, u: Simple, v: Simple) -> bool:
    return st.meet(v, st.complement(u)) == st.identity


def nf_validate(st: GarsideStructure, x: NormalForm) -> None:
    """Assert the normal-form invariants."""
    for f in x.factors:
        assert f != st.identity and f != st.delta, "factor outside the open simple interval"
        assert st.is_simple_payload(f), "factor payload is not simple"
    for u, v in zip(x.factors, x.factors[1:]):
        assert is_left_weighted(st, u, v), "consecutive factors are not left weighted"


def band_atom(st: DualStructure, t: int, s: int) -> Simple:
    """The band generator a_{ts} swapping strands t > s."""
    return st.atoms[st.ident.atom_index_of_band(t, s)]


def word_product(u: BraidWord, v: BraidWord) -> BraidWord:
    if u.structure != v.structure:
        raise ValueError("cannot multiply words over different structures")
    # u * D^g * v = D^g * twist^g(u) * v
    twisted = tuple((u.structure.twist_atom(i, v.g), sign) for i, sign in u.letters)
    return BraidWord(u.structure, u.g + v.g, twisted + v.letters)


def word_inverse(w: BraidWord) -> BraidWord:
    twisted = tuple(
        (w.structure.twist_atom(i, -w.g), -sign) for i, sign in reversed(w.letters)
    )
    return BraidWord(w.structure, -w.g, twisted)


def sliding_transport(y: NormalForm, u: NormalForm) -> NormalForm:
    """Conjugator u transported along one cyclic-sliding step on both sides."""
    st = y.structure
    yu = st.nf_conjugate(y, u)
    t = st.nf_inverse(st.nf_of_simple(preferred_prefix(y)))
    t = st.nf_multiply(t, u)
    return st.nf_right_multiply(t, preferred_prefix(yu))


def greedy_meet(st: GarsideStructure, a: Simple, b: Simple) -> Simple:
    """Meet by peeling common atoms, first in atom order, until none is left.

    Any atom dividing both arguments divides their meet, and peeling it off
    both peels it off the meet; this is the structure-neutral reference for
    the closed forms.
    """
    out = st.identity
    changed = True
    while changed:
        changed = False
        for i, atom in enumerate(st.atoms):
            if st.atom_prefix(i, a) and st.atom_prefix(i, b):
                a = st.left_quotient(atom, a)
                b = st.left_quotient(atom, b)
                out = mult(out, atom)
                changed = True
                break
    return out


@functools.cache
def _upper_sets(st: GarsideStructure) -> dict[Simple, frozenset[Simple]]:
    """Every simple mapped to the simples above it.

    Built from the top down: the simples above s are s itself and those above
    each cover s*atom (a simple whose norm is one more).
    """
    up: dict[Simple, frozenset[Simple]] = {}
    for s in reversed(st.all_simples):  # listed by norm, so covers come first
        covers = (mult(s, atom) for atom in st.atoms)
        up[s] = frozenset((s,)).union(
            *(up[t] for t in covers if t in up and st.norm(t) == st.norm(s) + 1)
        )
    return up


def scan_join(st: GarsideStructure, a: Simple, b: Simple) -> Simple:
    """Join by a scan of the common upper bounds: the one of least norm.

    Every common upper bound lies above the join, so the join is the only
    one of least norm; this is the structure-neutral reference for the
    closed forms.
    """
    up = _upper_sets(st)
    return min(up[a] & up[b], key=st.norm)


# ----- full-pass references for the normal-form calculus: every pass walks
# every factor, and inversion and word reading twist the whole partial result


def right_multiply_reference(st: GarsideStructure, x: NormalForm, a: Simple) -> NormalForm:
    """x*a by a right-to-left sliding pass over every factor of x."""
    if a == st.identity:
        return x
    if a == st.delta:
        return st.nf_mult_delta(x, 1)
    carry = a
    finals: list[Simple] = []
    for f in reversed(x.factors):
        carry, out = st.local_sliding(f, carry)
        finals.append(out)
    factors = [carry] + finals[::-1]
    p = x.p
    if factors[-1] == st.identity:
        factors.pop()
    if factors and factors[0] == st.delta:
        factors.pop(0)
        p += 1
    return st.nf(p, factors)


def left_multiply_reference(st: GarsideStructure, a: Simple, x: NormalForm) -> NormalForm:
    """a*x by a left-to-right sliding pass over every factor of x."""
    carry = st.tau(a, x.p)
    if carry == st.identity:
        return x
    if carry == st.delta:
        return st.nf(x.p + 1, x.factors)
    out: list[Simple] = []
    for f in x.factors:
        done, carry = st.local_sliding(carry, f)
        out.append(done)
    out.append(carry)
    p = x.p
    if out[-1] == st.identity:
        out.pop()
    if out and out[0] == st.delta:
        out.pop(0)
        p += 1
    return st.nf(p, out)


def multiply_reference(st: GarsideStructure, x: NormalForm, y: NormalForm) -> NormalForm:
    out = st.nf_mult_delta(x, y.p)
    for f in y.factors:
        out = right_multiply_reference(st, out, f)
    return out


def inverse_reference(st: GarsideStructure, x: NormalForm) -> NormalForm:
    """x^{-1} as the reversed product of the factor inverses
    Delta^{-1} tau^{-1}(complement(f)), one multiplication each."""
    out = st.nf(0)
    for f in reversed(x.factors):
        out = st.nf_mult_delta(out, -1)
        out = right_multiply_reference(st, out, st.tau(st.complement(f), -1))
    return st.nf_mult_delta(out, -x.p)


def nf_from_word_reference(st: GarsideStructure, word: BraidWord) -> NormalForm:
    """The normal form of a word, letter by letter; a^{-1} is Delta^{-1}
    tau^{-1}(complement(a)), so each negative letter twists the whole result."""
    out = st.nf(word.g)
    for index, sign in word.letters:
        a = st.atoms[index]
        if sign > 0:
            out = right_multiply_reference(st, out, a)
        else:
            out = st.nf_mult_delta(out, -1)
            out = right_multiply_reference(st, out, st.tau(st.complement(a), -1))
    return out


def conjugate_reference(st: GarsideStructure, x: NormalForm, c: NormalForm) -> NormalForm:
    """c^{-1} x c by inverting and multiplying: the reference for conjugation."""
    return multiply_reference(st, multiply_reference(st, inverse_reference(st, c), x), c)


class DivisorOracle:
    """Brute-force divisibility on simples, independent of the lattice code.

    Simples are re-derived by closing the identity under norm-additive atom
    multiplication; d divides s on the left iff s is reachable from d by
    right multiplications by atoms that stay norm-additive and simple.
    """

    def __init__(self, st: GarsideStructure) -> None:
        self.st = st
        seen = {st.identity}
        frontier = [st.identity]
        while frontier:
            s = frontier.pop()
            for a in st.atoms:
                t = mult(s, a)
                if (
                    t not in seen
                    and st.is_simple_payload(t)
                    and st.norm(t) == st.norm(s) + 1
                ):
                    seen.add(t)
                    frontier.append(t)
        self.simples = frozenset(seen)
        # left-divisor sets by reachability (right multiplication by atoms)
        self.left_divisors: dict[Simple, frozenset[Simple]] = {}
        for s in self.simples:
            divs = set()
            for d in self.simples:
                if self._reachable(d, s):
                    divs.add(d)
            self.left_divisors[s] = frozenset(divs)
        # right-divisor sets by reachability via left multiplication
        self.right_divisors: dict[Simple, frozenset[Simple]] = {}
        for s in self.simples:
            divs = set()
            for d in self.simples:
                if self._reachable_left(d, s):
                    divs.add(d)
            self.right_divisors[s] = frozenset(divs)

    def _reachable(self, d: Simple, s: Simple) -> bool:
        st = self.st
        stack = [d]
        seen = {d}
        while stack:
            u = stack.pop()
            if u == s:
                return True
            for a in st.atoms:
                t = mult(u, a)
                if (
                    t not in seen
                    and t in self.simples
                    and st.norm(t) == st.norm(u) + 1
                    and st.norm(t) <= st.norm(s)
                ):
                    seen.add(t)
                    stack.append(t)
        return False

    def _reachable_left(self, d: Simple, s: Simple) -> bool:
        st = self.st
        stack = [d]
        seen = {d}
        while stack:
            u = stack.pop()
            if u == s:
                return True
            for a in st.atoms:
                t = mult(a, u)
                if (
                    t not in seen
                    and t in self.simples
                    and st.norm(t) == st.norm(u) + 1
                    and st.norm(t) <= st.norm(s)
                ):
                    seen.add(t)
                    stack.append(t)
        return False

    def is_prefix(self, a: Simple, b: Simple) -> bool:
        return a in self.left_divisors[b]

    def is_suffix(self, a: Simple, b: Simple) -> bool:
        return a in self.right_divisors[b]

    def meet(self, a: Simple, b: Simple) -> Simple:
        common = self.left_divisors[a] & self.left_divisors[b]
        tops = [m for m in common if all(self.is_prefix(c, m) for c in common)]
        assert len(tops) == 1, "common divisors must have a unique maximum"
        return tops[0]

    def meet_right(self, a: Simple, b: Simple) -> Simple:
        common = self.right_divisors[a] & self.right_divisors[b]
        tops = [m for m in common if all(self.is_suffix(c, m) for c in common)]
        assert len(tops) == 1
        return tops[0]

    def join(self, a: Simple, b: Simple) -> Simple:
        common = [
            s
            for s in self.simples
            if self.is_prefix(a, s) and self.is_prefix(b, s)
        ]
        bottoms = [m for m in common if all(self.is_prefix(m, c) for c in common)]
        assert len(bottoms) == 1, "common multiples must have a unique minimum"
        return bottoms[0]


@pytest.fixture(scope="session")
def oracle_std4(std4):
    return DivisorOracle(std4)


@pytest.fixture(scope="session")
def oracle_dual5(dual5):
    return DivisorOracle(dual5)


@pytest.fixture(scope="session")
def oracle_dual4(dual4):
    return DivisorOracle(dual4)


# ----- the standard single-class shape and two-class search, kept as references


def _ladder(st: GarsideStructure, a_factors, b_factors) -> bool:
    for i, (a, b) in enumerate(zip(a_factors, b_factors), start=1):
        t = st.nf_right_multiply(st.nf_mult_delta(st.nf_of_simple(a), i - 1), b)
        if t != st.nf(i):
            return False
    return True


def _atom_run_candidates(st: GarsideStructure, run: tuple[Simple, ...]) -> list[Simple]:
    """The atoms x1 may be, given a run of k-1 copies of it."""
    if not run:
        return list(st.atoms)
    if len(set(run)) == 1 and run[0] in st.atom_index:
        return [run[0]]
    return []


def standard_power_form(xt: NormalForm, q: RecognitionQuery) -> FormWitness | None:
    """The standard single-class shape read off a left normal form.

    Either x1^k itself (n = 0), or g^{-n} A_n .. A_1 x1^k B_1 .. B_n with x1
    fused into B_1, so 2n + k - 1 factors, with x1 a suffix of A_1 tested
    before the ladder.  Each candidate atom is tried in atom order.
    """
    st = xt.structure
    assert st.ident.kind is StructureKind.STANDARD and st.ident.strands > 2
    k = q.k
    n = -xt.p
    if n < 0:
        return None
    if n == 0:
        x1s = _atom_run_candidates(st, xt.factors) if len(xt.factors) == k else []
        return FormWitness(xt, st.nf(0), "input", 0, k, x1s[0], (), ()) if x1s else None
    if len(xt.factors) != 2 * n + k - 1:
        return None
    a_factors = tuple(reversed(xt.factors[:n]))  # (A_1, ..., A_n)
    fused = xt.factors[n + k - 1]  # the factor x1 B_1
    for x1 in _atom_run_candidates(st, xt.factors[n : n + k - 1]):
        if not st.is_prefix(x1, fused) or not is_suffix(st, x1, a_factors[0]):
            continue
        b_factors = (st.left_quotient(x1, fused),) + xt.factors[n + k :]
        if _ladder(st, a_factors, b_factors):
            return FormWitness(xt, st.nf(0), "input", n, k, x1, a_factors, b_factors)
    return None


def standard_product_form(xt: NormalForm, q: RecognitionQuery) -> FormWitness | None:
    """The standard two-class shape read off a left normal form (n >= 1).

    g^{-n} A_n .. A_1 x1^k B_1 .. B_n y1^l in left normal form fuses x1 into
    B_1 and y1 into B_n (both into B_1 when n = 1), so the form has
    2n + k + l - 2 factors; A_1 ends with x1 and A_n starts with
    tau^{-n}(y1).
    """
    st = xt.structure
    assert st.ident.kind is StructureKind.STANDARD and q.l is not None
    k, l = q.k, q.l
    n = -xt.p
    if n < 1 or len(xt.factors) != 2 * n + k + l - 2:
        return None
    a_factors = tuple(reversed(xt.factors[:n]))  # (A_1, ..., A_n)
    x_candidates = _atom_run_candidates(st, xt.factors[n : n + k - 1])
    y_candidates = _atom_run_candidates(st, xt.factors[2 * n + k - 1 :])

    def found(x1, b_factors, y1):
        return FormWitness(xt, st.nf(0), "input", n, k, x1, a_factors, b_factors, l, y1)

    if n == 1:
        fused = xt.factors[k]  # the factor x1 B_1 y1
        for x1 in x_candidates:
            if not st.is_prefix(x1, fused) or not is_suffix(st, x1, a_factors[0]):
                continue
            rest = st.left_quotient(x1, fused)
            for y1 in y_candidates:
                if not is_suffix(st, y1, rest):
                    continue
                # A_1 = tau^{-1}(y1) A''_1 x1
                if not st.is_prefix(st.tau(y1, -1), right_quotient(st, a_factors[0], x1)):
                    continue
                b1 = right_quotient(st, rest, y1)
                if _ladder(st, a_factors, (b1,)):
                    return found(x1, (b1,), y1)
        return None

    head = xt.factors[n + k - 1]  # the factor x1 B_1
    tail = xt.factors[2 * n + k - 2]  # the factor B_n y1
    mid_b = xt.factors[n + k : 2 * n + k - 2]  # B_2 .. B_{n-1}
    for x1 in x_candidates:
        if not st.is_prefix(x1, head) or not is_suffix(st, x1, a_factors[0]):
            continue
        b1 = st.left_quotient(x1, head)
        for y1 in y_candidates:
            if not is_suffix(st, y1, tail) or not st.is_prefix(st.tau(y1, -n), a_factors[-1]):
                continue
            b_factors = (b1,) + mid_b + (right_quotient(st, tail, y1),)
            if _ladder(st, a_factors, b_factors):
                return found(x1, b_factors, y1)
    return None


def standard_sc_search(x: NormalForm, q: RecognitionQuery) -> RecognitionResult | None:
    """Standard two-class decision by a search of the whole sliding-circuits set.

    Covers elements whose summit inf is negative (None otherwise): after the
    summit-length filter, every element of the set is matched against the
    standard shape.
    """
    st = x.structure
    xt, c = slide_to_circuit(x)
    if xt.p >= 0:
        return None
    if summit_length_filter(xt, q) is False:
        return RecognitionResult(False)
    for z, wz in sliding_circuits(xt).elements.items():
        w = standard_product_form(z, q)
        if w is not None:
            return RecognitionResult(True, replace(w, conjugator=st.nf_multiply(c, wz), location="sc"))
    return RecognitionResult(False)


# ----- sliding circuits without the membership memo or the early stop


def _min_sc_conjugators_reference(y: NormalForm) -> list[tuple[Simple, NormalForm]]:
    """Per atom, the first simple in (norm, payload) order above it that
    conjugates y into a sliding circuit, with that conjugate; one plain
    in_sliding_circuit walk per candidate simple."""
    st = y.structure
    found: dict[int, tuple[Simple, NormalForm]] = {}
    pending = list(range(len(st.atoms)))
    for s in st.all_simples[:-1]:
        above = [i for i in pending if st.atom_prefix(i, s)]
        if not above:
            continue
        z = st.nf_conjugate_by_simple(y, s)
        if z.p != y.p or len(z.factors) != len(y.factors):
            continue
        if in_sliding_circuit(z):
            for i in above:
                found[i] = (s, z)
            pending = [i for i in pending if i not in found]
            if not pending:
                break
    top = (st.delta, st.nf_tau(y, 1))
    return [found.get(i, top) for i in range(len(st.atoms))]


def sliding_circuits_reference(x: NormalForm, max_sc: int = 100_000) -> SlidingCircuits:
    """The whole sliding-circuits set, depth first, with witnesses and arrows
    in the order sliding_circuits gives them."""
    st = x.structure
    rep, w0 = slide_to_circuit(x)
    sc = SlidingCircuits()
    sc.elements[rep] = w0
    frontier = [rep]
    while frontier:
        y = frontier.pop()
        minima = _min_sc_conjugators_reference(y)
        conjugate = dict(minima)
        candidates = sorted({s for s, _ in minima}, key=lambda s: (st.norm(s), s))
        trivial = not y.factors
        for c in candidates:
            if any(d != c and st.is_prefix(d, c) for d in candidates):
                continue
            z = conjugate[c]
            black = trivial or st.is_prefix(c, initial_factor(y))
            grey = trivial or st.is_prefix(c, st.complement(final_factor(y)))
            sc.arrows.append(Arrow(y, c, z, black, grey))
            if z not in sc.elements:
                sc.elements[z] = st.nf_right_multiply(sc.elements[y], c)
                frontier.append(z)
                if len(sc.elements) > max_sc:
                    raise ResourceCapExceeded("sliding-circuits set", max_sc)
    return sc


def are_conjugate_reference(
    x: NormalForm, y: NormalForm, max_sc: int = 100_000
) -> tuple[bool, NormalForm | None]:
    """Conjugacy decided on the whole sliding-circuits set of x."""
    st = x.structure
    if st.nf_algebraic_length(x) != st.nf_algebraic_length(y):
        return False, None
    rx, wx = slide_to_circuit(x)
    ry, wy = slide_to_circuit(y)
    if (rx.inf, rx.sup) != (ry.inf, ry.sup):
        return False, None
    if rx != ry:
        sc = sliding_circuits_reference(rx, max_sc)
        if ry not in sc.elements:
            return False, None
        wx = st.nf_multiply(wx, sc.elements[ry])
    return True, st.nf_multiply(wx, st.nf_inverse(wy))


def conjugacy_branch_reference(
    xt: NormalForm, to_circuit: NormalForm, q: RecognitionQuery, max_sc: int = 100_000
) -> RecognitionResult:
    """The positive-summit branch decided on the whole sliding-circuits set of
    xt: every atom pair's x1^k y1^l is slid to its circuit and looked up in it,
    in atom-pair order."""
    st = xt.structure
    sc = sliding_circuits(xt, max_sc)
    for xi in range(len(st.atoms)):
        for yi in range(len(st.atoms)):
            target = st.nf(0)
            for a in (st.atoms[xi],) * q.k + (st.atoms[yi],) * q.l:
                target = st.nf_right_multiply(target, a)
            rep, wt = slide_to_circuit(target)
            if rep in sc.elements:
                conj = st.nf_multiply(to_circuit, sc.elements[rep])
                conj = st.nf_multiply(conj, st.nf_inverse(wt))
                w = FormWitness(
                    target, conj, "conjugacy", 0, q.k, st.atoms[xi], (), (), q.l, st.atoms[yi]
                )
                return RecognitionResult(True, w)
    return RecognitionResult(False)
