"""Garside structure interface and the left-normal-form calculus.

Simple elements of both structures are stored as permutations of the strand
positions, in 0-indexed one-line notation: ``s[i]`` is the image of position
``i``.  Composition is left to right (``mult(u, v)`` performs ``u`` then
``v``), matching the order in which braid words are read.  A group element is
a :class:`NormalForm`: a Garside-element power ``p`` together with the tuple
of left-weighted factors, each a simple element strictly between the identity
and the Garside element.  Two elements are equal iff their normal forms are
equal, which solves the word problem.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable

from .words import BraidWord, StructureId

Simple = tuple[int, ...]
"""A simple element payload: a permutation in one-line notation."""


def mult(u: Simple, v: Simple) -> Simple:
    """Permutation composition, ``u`` applied first."""
    return tuple(v[x] for x in u)


def inverse_perm(u: Simple) -> Simple:
    out = [0] * len(u)
    for i, x in enumerate(u):
        out[x] = i
    return tuple(out)


class GarsideStructure(ABC):
    """A finite-type Garside structure on Br_n.

    Concrete subclasses supply the atom list, the Garside element, the letter
    length of simples and the membership test for simple payloads; everything
    else (divisibility, lattice operations, complements, normal forms) is
    derived here.  All operations are pure and memoized, so instances are
    safe to share between threads.
    """

    ident: StructureId

    def __init__(self, ident: StructureId) -> None:
        self.ident = ident
        n = ident.strands
        self.identity: Simple = tuple(range(n))
        self.delta: Simple = self._make_delta()
        self.atoms: tuple[Simple, ...] = self._make_atoms()
        self.atom_index: dict[Simple, int] = {a: i for i, a in enumerate(self.atoms)}
        # Memoize the hot primitives; the simple sets are small.
        self.meet = functools.lru_cache(maxsize=None)(self._meet)
        self.local_sliding = functools.lru_cache(maxsize=None)(self._local_sliding)
        self.complement = functools.lru_cache(maxsize=None)(self._complement)
        self.complement_inv = functools.lru_cache(maxsize=None)(self._complement_inv)
        self.is_prefix = functools.lru_cache(maxsize=None)(self._is_prefix)
        self.is_suffix = functools.lru_cache(maxsize=None)(self._is_suffix)

    # ----- structure-specific obligations -------------------------------

    @abstractmethod
    def _make_delta(self) -> Simple: ...

    @abstractmethod
    def _make_atoms(self) -> tuple[Simple, ...]: ...

    @abstractmethod
    def norm(self, s: Simple) -> int:
        """Letter length of a simple element."""

    @abstractmethod
    def is_simple_payload(self, s: Simple) -> bool:
        """Whether the permutation represents a simple element."""

    @abstractmethod
    def atom_prefix(self, atom: int, s: Simple) -> bool:
        """Whether atom number ``atom`` is a prefix of ``s``."""

    # ----- divisibility and lattice operations --------------------------

    def _is_prefix(self, a: Simple, b: Simple) -> bool:
        """a divides b on the left within the simple interval."""
        q = mult(inverse_perm(a), b)
        return self.is_simple_payload(q) and self.norm(a) + self.norm(q) == self.norm(b)

    def _is_suffix(self, a: Simple, b: Simple) -> bool:
        """a divides b on the right within the simple interval."""
        q = mult(b, inverse_perm(a))
        return self.is_simple_payload(q) and self.norm(a) + self.norm(q) == self.norm(b)

    def left_quotient(self, a: Simple, b: Simple) -> Simple:
        """The simple a^{-1} b; caller guarantees a is a prefix of b."""
        return mult(inverse_perm(a), b)

    def right_quotient(self, b: Simple, a: Simple) -> Simple:
        """The simple b a^{-1}; caller guarantees a is a suffix of b."""
        return mult(b, inverse_perm(a))

    def atom_suffix(self, atom: int, s: Simple) -> bool:
        return self.is_suffix(self.atoms[atom], s)

    def _meet(self, a: Simple, b: Simple) -> Simple:
        # Greedy peel: any atom dividing both divides the meet, and peeling
        # it from both arguments peels it from the meet.
        out = self.identity
        changed = True
        while changed:
            changed = False
            for i, atom in enumerate(self.atoms):
                if self.atom_prefix(i, a) and self.atom_prefix(i, b):
                    a = self.left_quotient(atom, a)
                    b = self.left_quotient(atom, b)
                    out = mult(out, atom)
                    changed = True
                    break
        return out

    def meet_right(self, a: Simple, b: Simple) -> Simple:
        """Greatest common divisor for the right (suffix) divisibility order."""
        out = self.identity
        changed = True
        while changed:
            changed = False
            for i, atom in enumerate(self.atoms):
                if self.atom_suffix(i, a) and self.atom_suffix(i, b):
                    a = self.right_quotient(a, atom)
                    b = self.right_quotient(b, atom)
                    out = mult(atom, out)
                    changed = True
                    break
        return out

    @functools.cached_property
    def all_simples(self) -> tuple[Simple, ...]:
        """Every simple element, found by closing the atoms under extension."""
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            s = frontier.pop()
            for atom in self.atoms:
                t = mult(s, atom)
                if (
                    t not in seen
                    and self.is_simple_payload(t)
                    and self.norm(t) == self.norm(s) + 1
                ):
                    seen.add(t)
                    frontier.append(t)
        return tuple(sorted(seen, key=lambda s: (self.norm(s), s)))

    @functools.cache
    def join(self, a: Simple, b: Simple) -> Simple:
        """Least common upper bound of two simples (within the simples)."""
        out = self.delta
        for s in self.all_simples:
            if self.is_prefix(a, s) and self.is_prefix(b, s):
                out = self.meet(out, s)
        return out

    # ----- complements and the Garside twist ----------------------------

    def _complement(self, a: Simple) -> Simple:
        """The right complement: a * complement(a) equals the Garside element."""
        return mult(inverse_perm(a), self.delta)

    def _complement_inv(self, a: Simple) -> Simple:
        """The left complement: complement_inv(a) * a equals the Garside element."""
        return mult(self.delta, inverse_perm(a))

    @functools.cache
    def delta_power(self, k: int) -> Simple:
        """delta^k, with k reduced modulo the order of the permutation delta."""
        powers = [self.identity]
        while (d := mult(powers[-1], self.delta)) != self.identity:
            powers.append(d)
        return powers[k % len(powers)]

    @functools.cache
    def tau(self, a: Simple, k: int = 1) -> Simple:
        """Conjugation of a simple by the k-th power of the Garside element."""
        d = self.delta_power(k)
        return mult(mult(inverse_perm(d), a), d)

    # ----- atom sets ----------------------------------------------------

    def starting_set(self, a: Simple) -> frozenset[int]:
        return frozenset(i for i in range(len(self.atoms)) if self.atom_prefix(i, a))

    def finishing_set(self, a: Simple) -> frozenset[int]:
        return frozenset(i for i in range(len(self.atoms)) if self.atom_suffix(i, a))

    def right_complementary_set(self, a: Simple) -> frozenset[int]:
        return self.starting_set(self.complement(a))

    def left_complementary_set(self, a: Simple) -> frozenset[int]:
        return self.finishing_set(self.complement_inv(a))

    # ----- local sliding and left weightedness --------------------------

    def _local_sliding(self, u: Simple, v: Simple) -> tuple[Simple, Simple]:
        """Shift the largest slice of v that still fits after u to the left."""
        s = self.meet(v, self.complement(u))
        if s == self.identity:
            return u, v
        return mult(u, s), self.left_quotient(s, v)

    def is_left_weighted(self, u: Simple, v: Simple) -> bool:
        return self.meet(v, self.complement(u)) == self.identity

    # ----- normal forms -------------------------------------------------

    def nf(self, p: int = 0, factors: Iterable[Simple] = ()) -> NormalForm:
        return NormalForm(self, p, tuple(factors))

    def nf_of_simple(self, s: Simple) -> NormalForm:
        if s == self.identity:
            return self.nf(0)
        if s == self.delta:
            return self.nf(1)
        return self.nf(0, (s,))

    def nf_mult_delta(self, x: NormalForm, k: int) -> NormalForm:
        """x times the k-th Garside power."""
        if k == 0:
            return x
        return self.nf(x.p + k, tuple(self.tau(f, k) for f in x.factors))

    def nf_tau(self, x: NormalForm, k: int = 1) -> NormalForm:
        """Conjugate by the k-th Garside power; p and length are unchanged."""
        return self.nf(x.p, tuple(self.tau(f, k) for f in x.factors))

    def nf_right_multiply(self, x: NormalForm, a: Simple) -> NormalForm:
        """Normal form of x*a in one right-to-left sliding pass."""
        if a == self.identity:
            return x
        if a == self.delta:
            return self.nf_mult_delta(x, 1)
        carry = a
        finals: list[Simple] = []
        for f in reversed(x.factors):
            f_new, out = self.local_sliding(f, carry)
            finals.append(out)
            carry = f_new
        factors = [carry] + finals[::-1]
        p = x.p
        if factors[-1] == self.identity:
            factors.pop()
        if factors and factors[0] == self.delta:
            factors.pop(0)
            p += 1
        return self.nf(p, tuple(factors))

    def nf_left_multiply(self, a: Simple, x: NormalForm) -> NormalForm:
        """Normal form of a*x in one left-to-right sliding pass."""
        carry = self.tau(a, x.p)
        if carry == self.identity:
            return x
        if carry == self.delta:
            return self.nf(x.p + 1, x.factors)
        out: list[Simple] = []
        for f in x.factors:
            done, carry = self.local_sliding(carry, f)
            out.append(done)
        out.append(carry)
        p = x.p
        if out[-1] == self.identity:
            out.pop()
        if out and out[0] == self.delta:
            out.pop(0)
            p += 1
        return self.nf(p, tuple(out))

    def nf_multiply(self, x: NormalForm, y: NormalForm) -> NormalForm:
        out = self.nf_mult_delta(x, y.p)
        for f in y.factors:
            out = self.nf_right_multiply(out, f)
        return out

    def nf_inverse(self, x: NormalForm) -> NormalForm:
        # x^{-1} is the reversed product of factor inverses; each factor
        # inverse is the Garside inverse times the down-twisted complement.
        out = self.nf(0)
        for f in reversed(x.factors):
            out = self.nf_mult_delta(out, -1)
            out = self.nf_right_multiply(out, self.tau(self.complement(f), -1))
        return self.nf_mult_delta(out, -x.p)

    def nf_conjugate(self, x: NormalForm, c: NormalForm) -> NormalForm:
        return self.nf_multiply(self.nf_multiply(self.nf_inverse(c), x), c)

    def nf_conjugate_by_simple(self, x: NormalForm, s: Simple) -> NormalForm:
        return self.nf_conjugate(x, self.nf_of_simple(s))

    def nf_from_word(self, word: BraidWord) -> NormalForm:
        if word.structure != self.ident:
            raise ValueError("word is over a different structure")
        out = self.nf(word.g)
        for index, sign in word.letters:
            a = self.atoms[index]
            if sign > 0:
                out = self.nf_right_multiply(out, a)
            else:
                # a^{-1} = Delta^{-1} * tau^{-1}(complement(a))
                out = self.nf_mult_delta(out, -1)
                out = self.nf_right_multiply(out, self.tau(self.complement(a), -1))
        return out

    def nf_to_word(self, x: NormalForm) -> BraidWord:
        """A word (Garside power followed by atoms) spelling x."""
        letters: list[tuple[int, int]] = []
        for f in x.factors:
            letters.extend((i, 1) for i in self.spell_simple(f))
        return BraidWord(self.ident, x.p, tuple(letters))

    @functools.cache
    def spell_simple(self, s: Simple) -> tuple[int, ...]:
        """One atom word spelling a simple element (greedy, deterministic)."""
        out: list[int] = []
        while s != self.identity:
            for i, atom in enumerate(self.atoms):
                if self.atom_prefix(i, s):
                    out.append(i)
                    s = self.left_quotient(atom, s)
                    break
            else:
                raise ValueError("payload is not a simple element")
        return tuple(out)

    def nf_validate(self, x: NormalForm) -> None:
        """Assert the normal-form invariants; used by the test suite."""
        for f in x.factors:
            if f == self.identity or f == self.delta:
                raise AssertionError("factor outside the open simple interval")
            if not self.is_simple_payload(f):
                raise AssertionError("factor payload is not simple")
        for u, v in zip(x.factors, x.factors[1:]):
            if not self.is_left_weighted(u, v):
                raise AssertionError("consecutive factors are not left weighted")

    def nf_algebraic_length(self, x: NormalForm) -> int:
        return x.p * self.norm(self.delta) + sum(self.norm(f) for f in x.factors)


@dataclass(frozen=True)
class NormalForm:
    """Garside power plus left-weighted factors; the canonical element form."""

    structure: GarsideStructure = field(repr=False)
    p: int
    factors: tuple[Simple, ...]

    @property
    def inf(self) -> int:
        return self.p

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def sup(self) -> int:
        return self.p + len(self.factors)

    def is_identity(self) -> bool:
        return self.p == 0 and not self.factors

    def is_positive(self) -> bool:
        return self.p >= 0

    def __repr__(self) -> str:
        kind = self.structure.ident.kind.value
        n = self.structure.ident.strands
        return f"NormalForm({kind} Br_{n}, p={self.p}, r={len(self.factors)})"
