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
from typing import Iterable, NamedTuple

from .words import BraidWord, StructureId

Simple = tuple[int, ...]
"""A simple element payload: a permutation in one-line notation."""


def mult(u: Simple, v: Simple) -> Simple:
    """Permutation composition, ``u`` applied first."""
    return tuple([v[x] for x in u])  # a list builds faster than a generator


def inverse_perm(u: Simple) -> Simple:
    out = [0] * len(u)
    for i, x in enumerate(u):
        out[x] = i
    return tuple(out)


class GarsideStructure(ABC):
    """A finite-type Garside structure on Br_n.

    Concrete subclasses supply the atoms, the Garside element Delta, the
    letter length ``norm`` of simples, the atom test ``atom_prefix`` and
    closed forms of ``meet`` and ``join``; everything else (divisibility,
    complements, normal forms) is derived here.  The simples are what the
    lattice makes of these: the divisors of Delta, so ``all_simples`` needs
    no membership test of its own.  A subclass may also supply its own
    ``local_sliding`` when its meet already yields the slid pair.  All
    operations are pure, so instances are safe to share between threads.

    ``delta_order`` is the order of the permutation of the Garside element
    (2 in the standard structure, n in the dual one); callers reduce ``tau``
    exponents modulo it, so that one twist is one memo key.

    Six primitives keep an unbounded memo per instance, made in ``__init__``,
    because the same simples come back again and again: ``local_sliding``,
    ``tau`` and ``complement`` in every multiplication, ``is_prefix`` in arrow
    and shape tests, ``norm`` in arrow order and lengths, ``spell_simple`` in
    every word written.  Without the last three the bench ran slower, and
    bounding all six slowed the sliding-circuit searches more than it saved.
    """

    ident: StructureId

    def __init__(self, ident: StructureId) -> None:
        self.ident = ident
        self.identity: Simple = tuple(range(ident.strands))
        self.delta: Simple = self._make_delta()
        self.atoms: tuple[Simple, ...] = self._make_atoms()
        self.atom_index: dict[Simple, int] = {a: i for i, a in enumerate(self.atoms)}
        powers = [self.identity]
        while (d := mult(powers[-1], self.delta)) != self.identity:
            powers.append(d)
        self._delta_powers: tuple[Simple, ...] = tuple(powers)
        self.delta_order: int = len(powers)
        for name in ("local_sliding", "tau", "complement", "is_prefix", "norm", "spell_simple"):
            setattr(self, name, functools.cache(getattr(self, name)))

    # ----- structure-specific obligations -------------------------------

    @abstractmethod
    def _make_delta(self) -> Simple: ...

    @abstractmethod
    def _make_atoms(self) -> tuple[Simple, ...]: ...

    @abstractmethod
    def norm(self, s: Simple) -> int:
        """Letter length of a simple element."""

    @abstractmethod
    def atom_prefix(self, atom: int, s: Simple) -> bool:
        """Whether atom number ``atom`` is a prefix of ``s``."""

    @abstractmethod
    def meet(self, a: Simple, b: Simple) -> Simple:
        """Greatest common prefix of two simples."""

    @abstractmethod
    def join(self, a: Simple, b: Simple) -> Simple:
        """Least common upper bound of two simples in the prefix order."""

    # ----- divisibility and lattice operations --------------------------

    def is_prefix(self, a: Simple, b: Simple) -> bool:
        """a divides b on the left: the lattice test, a meet b equals a."""
        return self.meet(a, b) == a

    def left_quotient(self, a: Simple, b: Simple) -> Simple:
        """The simple a^{-1} b; caller guarantees a is a prefix of b."""
        return mult(inverse_perm(a), b)

    @functools.cached_property
    def all_simples(self) -> tuple[Simple, ...]:
        """Every simple element: the identity closed under s -> s a for the
        atoms a that divide complement(s), so that s a still divides Delta.

        Only the tests and the benchmark's set-up build it, never the engine."""
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            s = frontier.pop()
            rest = self.complement(s)
            for i, atom in enumerate(self.atoms):
                if self.atom_prefix(i, rest) and (t := mult(s, atom)) not in seen:
                    seen.add(t)
                    frontier.append(t)
        return tuple(sorted(seen, key=lambda s: (self.norm(s), s)))

    # ----- complements and the Garside twist ----------------------------

    def complement(self, a: Simple) -> Simple:
        """The right complement: a * complement(a) equals the Garside element."""
        return mult(inverse_perm(a), self.delta)

    def delta_power(self, k: int) -> Simple:
        """delta^k, with k reduced modulo the order of the permutation delta."""
        return self._delta_powers[k % self.delta_order]

    def tau(self, a: Simple, k: int = 1) -> Simple:
        """Conjugation of a simple by the k-th power of the Garside element."""
        d = self.delta_power(k)
        return mult(mult(inverse_perm(d), a), d)

    # ----- local sliding ------------------------------------------------

    def local_sliding(self, u: Simple, v: Simple) -> tuple[Simple, Simple]:
        """Shift the largest slice of v that still fits after u to the left."""
        s = self.meet(v, self.complement(u))
        if s == self.identity:
            return u, v
        return mult(u, s), self.left_quotient(s, v)

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
        t = k % self.delta_order
        return self.nf(x.p + k, tuple(self.tau(f, t) for f in x.factors))

    def nf_tau(self, x: NormalForm, k: int = 1) -> NormalForm:
        """Conjugate by the k-th Garside power; p and length are unchanged."""
        t = k % self.delta_order
        return self.nf(x.p, tuple(self.tau(f, t) for f in x.factors))

    def nf_right_multiply(self, x: NormalForm, a: Simple) -> NormalForm:
        """Normal form of x*a in one right-to-left sliding pass, which stops at
        the first factor that the carry leaves unchanged."""
        if a == self.identity:
            return x
        if a == self.delta:
            return self.nf_mult_delta(x, 1)
        carry = a
        finals: list[Simple] = []
        for f in reversed(x.factors):
            f_new, out = self.local_sliding(f, carry)
            finals.append(out)
            if f_new == f:
                # the carry stops at f: the pairs left of it are left-weighted
                kept = len(x.factors) + 1 - len(finals)  # f and the factors before it
                factors = [*x.factors[:kept], *reversed(finals)]
                break
            carry = f_new
        else:
            factors = [carry, *reversed(finals)]
        p = x.p
        if factors[-1] == self.identity:
            factors.pop()
        if factors and factors[0] == self.delta:
            factors.pop(0)
            p += 1
        return self.nf(p, tuple(factors))

    def nf_left_multiply(self, a: Simple, x: NormalForm) -> NormalForm:
        """Normal form of a*x in one left-to-right sliding pass, which stops once
        the carry passes a factor unchanged or is used up."""
        carry = self.tau(a, x.p % self.delta_order)
        if carry == self.identity:
            return x
        if carry == self.delta:
            return self.nf(x.p + 1, x.factors)
        out: list[Simple] = []
        for j, f in enumerate(x.factors):
            done, rest = self.local_sliding(carry, f)
            if done == carry:
                # the carry passes f unchanged: the rest of x is left-weighted
                out += (carry, *x.factors[j:])
                break
            out.append(done)
            carry = rest
            if carry == self.identity:
                out += x.factors[j + 1 :]
                break
        else:
            out.append(carry)
        p = x.p
        if out[0] == self.delta:
            out.pop(0)
            p += 1
        return self.nf(p, tuple(out))

    def nf_multiply(self, x: NormalForm, y: NormalForm) -> NormalForm:
        out = self.nf_mult_delta(x, y.p)
        for f in y.factors:
            out = self.nf_right_multiply(out, f)
        return out

    def nf_inverse(self, x: NormalForm) -> NormalForm:
        """The normal form of x^{-1}, read off x's factors without sliding.

        For x = Delta^p f_1 ... f_r, with f^{-1} = complement(f) Delta^{-1}
        and Delta^{-m} b = tau^m(b) Delta^{-m}, x^{-1} is Delta^{-p-r} g_r
        ... g_1 with g_i = tau^{-p-i}(complement(f_i)).  This is a normal
        form: (a, b) is left-weighted iff complement(a) meet b = 1, and the
        complement of complement(f) is tau(f), so (complement(f_{i+1}),
        tau(complement(f_i))) is left-weighted iff tau(f_{i+1} meet
        complement(f_i)) = 1, that is, iff (f_i, f_{i+1}) is (Epstein et
        al., Word Processing in Groups, ch. 9).
        """
        r, order = len(x.factors), self.delta_order
        factors = (
            self.tau(self.complement(x.factors[i - 1]), (-x.p - i) % order) for i in range(r, 0, -1)
        )
        return self.nf(-x.p - r, factors)

    def nf_conjugate(self, x: NormalForm, c: NormalForm) -> NormalForm:
        """c^{-1} x c: twist by the Garside power of c, then conjugate by each factor."""
        y = self.nf_tau(x, c.p)
        for f in c.factors:
            y = self.nf_conjugate_by_simple(y, f)
        return y

    def nf_conjugate_by_simple(self, x: NormalForm, s: Simple) -> NormalForm:
        """s^{-1} x s in two sliding passes, one on each side of x.

        s^{-1} = Delta^{-1} tau^{-1}(complement(s)): multiply x on the left by
        the twisted complement, lower the Garside power by one, then multiply
        on the right by s.
        """
        y = self.nf_left_multiply(self.tau(self.complement(s), -1 % self.delta_order), x)
        return self.nf_right_multiply(self.nf(y.p - 1, y.factors), s)

    def nf_from_word(self, word: BraidWord) -> NormalForm:
        if word.structure != self.ident:
            raise ValueError("word is over a different structure")
        # The word so far is y Delta^{-m}: with Delta^{-m} b = tau^m(b) Delta^{-m}
        # and c^{-1} = complement(c) Delta^{-1}, each run of the word multiplies
        # y on the right by one twisted simple, and Delta^{-m} is applied once.
        y, m = self.nf(word.g), 0
        for sign, block in self._simple_runs(word.letters):
            s = block if sign > 0 else self.complement(block)
            y = self.nf_right_multiply(y, self.tau(s, m % self.delta_order))
            m += sign < 0
        return self.nf_mult_delta(y, -m)

    def _simple_runs(self, letters: Iterable[tuple[int, int]]) -> list[tuple[int, Simple]]:
        """The letters cut into maximal same-sign runs whose product is simple.

        A positive run a_1 ... a_k is the simple a_1 ... a_k; it grows by a
        while a divides the complement of the run so far.  A negative run
        a_1^{-1} ... a_k^{-1} is (a_k ... a_1)^{-1}, so it is kept as the
        simple a_k ... a_1, which grows by a while it divides complement(a).
        """
        runs: list[tuple[int, Simple]] = []
        for index, sign in letters:
            a = self.atoms[index]
            if runs and runs[-1][0] == sign:
                block = runs[-1][1]
                if sign > 0 and self.atom_prefix(index, self.complement(block)):
                    runs[-1] = (sign, mult(block, a))
                    continue
                if sign < 0 and self.is_prefix(block, self.complement(a)):
                    runs[-1] = (sign, mult(a, block))
                    continue
            runs.append((sign, a))
        return runs

    def nf_to_word(self, x: NormalForm) -> BraidWord:
        """A word (Garside power followed by atoms) spelling x."""
        letters: list[tuple[int, int]] = []
        for f in x.factors:
            letters.extend((i, 1) for i in self.spell_simple(f))
        return BraidWord(self.ident, x.p, tuple(letters))

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

    def nf_algebraic_length(self, x: NormalForm) -> int:
        return x.p * self.norm(self.delta) + sum(self.norm(f) for f in x.factors)


# a named tuple builds faster than a frozen dataclass, and one cyclic sliding builds several
class NormalForm(NamedTuple):
    """Garside power plus left-weighted factors; the canonical element form."""

    structure: GarsideStructure
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

    def __repr__(self) -> str:
        kind = self.structure.ident.kind.value
        n = self.structure.ident.strands
        return f"NormalForm({kind} Br_{n}, p={self.p}, r={len(self.factors)})"
