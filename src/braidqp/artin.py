"""The standard Garside structure on Br_n: simples are permutation braids.

Every permutation of the strands corresponds to exactly one simple element
(n! simples); the Garside element is the half twist, i.e. the order-reversing
permutation, and the letter length of a simple is the inversion count of its
permutation.  An Artin generator sigma_i is a prefix of a simple iff the
one-line notation has a descent at position i.
"""

from __future__ import annotations

import functools

from .core import GarsideStructure, Simple, inverse_perm, mult
from .words import StructureId, StructureKind


def inversion_count(s: Simple) -> int:
    return sum(1 for i in range(len(s)) for j in range(i + 1, len(s)) if s[i] > s[j])


def _peel_common_descents(p: list[int], q: list[int]) -> bool:
    """Peel the meet of two permutation braids off both, in place (see
    ``ArtinStructure.meet``); whether anything was peeled."""
    j, last, swapped = 0, len(p) - 1, False
    while j < last:
        if p[j] > p[j + 1] and q[j] > q[j + 1]:
            p[j], p[j + 1] = p[j + 1], p[j]
            q[j], q[j + 1] = q[j + 1], q[j]
            swapped = True
            if j:
                j -= 1
        else:
            j += 1
    return swapped


class ArtinStructure(GarsideStructure):
    def __init__(self, n: int) -> None:
        super().__init__(StructureId(n, StructureKind.STANDARD))

    def _make_delta(self) -> Simple:
        n = self.ident.strands
        return tuple(range(n - 1, -1, -1))

    def _make_atoms(self) -> tuple[Simple, ...]:
        n = self.ident.strands
        atoms = []
        for i in range(n - 1):
            a = list(range(n))
            a[i], a[i + 1] = a[i + 1], a[i]
            atoms.append(tuple(a))
        return tuple(atoms)

    def norm(self, s: Simple) -> int:
        return inversion_count(s)

    def atom_prefix(self, atom: int, s: Simple) -> bool:
        # Descent criterion, verified against brute-force divisor enumeration.
        return s[atom] > s[atom + 1]

    def meet(self, a: Simple, b: Simple) -> Simple:
        """Meet of two permutation braids in the weak order.

        An atom dividing both divides the meet, and peeling it off both peels
        it off the meet (Thurston, in Epstein et al., "Word Processing in
        Groups", ch. 9).  sigma_i divides iff there is a descent at i, and
        peeling it swaps positions i and i+1: a bubble sort of the common
        descents, stepping back after each swap.  If a' is what is left of a,
        the meet is a a'^{-1}.
        """
        p, q = list(a), list(b)
        _peel_common_descents(p, q)
        return mult(a, inverse_perm(p))

    def local_sliding(self, u: Simple, v: Simple) -> tuple[Simple, Simple]:
        """Shift the largest slice s of v that still fits after u to the left.

        s is the meet of v and complement(u), and peeling it off both leaves
        s^{-1} v and s^{-1} complement(u) = complement(u s), so u s is the
        left complement Delta q^{-1} of the second, q; Delta reverses the
        positions, so that is q^{-1} read backwards.  A slide that peels
        nothing returns (u, v) as they are.
        """
        p, q = list(v), list(self.complement(u))
        if not _peel_common_descents(p, q):
            return u, v
        return inverse_perm(q)[::-1], tuple(p)

    def join(self, a: Simple, b: Simple) -> Simple:
        # s lies above a iff complement(s) divides complement(a) on the right,
        # so the join is the left complement tau^{-1}(complement(m)) of the
        # right meet m of the complements.  Reversing words inverts
        # permutation braids and turns that right meet into a meet.
        m = self.meet(inverse_perm(self.complement(a)), inverse_perm(self.complement(b)))
        return self.tau(self.complement(inverse_perm(m)), -1 % self.delta_order)


@functools.cache
def artin_structure(n: int) -> ArtinStructure:
    return ArtinStructure(n)
