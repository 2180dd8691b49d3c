"""Shared fixtures: structures, random-word helpers and the divisor oracle."""

from __future__ import annotations

import random

import pytest

from braidqp import (
    BraidWord,
    GarsideStructure,
    NormalForm,
    Simple,
    artin_structure,
    dual_structure,
    inverse_perm,
    mult,
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
