"""The dual (band-generator) Garside structure on Br_n.

Simple elements correspond to non-crossing partitions of the strands: the
simple for a partition is the product of one ascending cycle per block
(each element maps to the next larger one in its block, the largest back to
the smallest).  There are Catalan(n) simples; the Garside element is the
single n-cycle delta = sigma_{n-1} ... sigma_1, and the letter length of a
simple is n minus its number of cycles.  The atoms are the band generators
a_{ts} (transpositions of strands t > s); an atom divides a simple iff its
two strands lie in the same block.
"""

from __future__ import annotations

import functools

from .core import GarsideStructure, Simple
from .words import StructureId, StructureKind


def cycles_of(s: Simple) -> list[list[int]]:
    """Cycle decomposition; each cycle is listed from its smallest element."""
    seen = [False] * len(s)
    out = []
    for start in range(len(s)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = s[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = s[x]
        out.append(cycle)
    return out


class DualStructure(GarsideStructure):
    def __init__(self, n: int) -> None:
        ident = StructureId(n, StructureKind.DUAL)
        # 0-indexed strand pairs of the atoms, in atom order
        self._bands = tuple((t - 1, s - 1) for t, s in ident.atom_pairs())
        super().__init__(ident)

    def _make_delta(self) -> Simple:
        n = self.ident.strands
        return tuple((i + 1) % n for i in range(n))

    def _make_atoms(self) -> tuple[Simple, ...]:
        n = self.ident.strands
        atoms = []
        for t, s in self._bands:
            a = list(range(n))
            a[t], a[s] = a[s], a[t]
            atoms.append(tuple(a))
        return tuple(atoms)

    def norm(self, s: Simple) -> int:
        return len(s) - len(cycles_of(s))

    def atom_prefix(self, atom: int, s: Simple) -> bool:
        t, u = self._bands[atom]
        return self._same_cycle(s, t, u)

    def meet(self, a: Simple, b: Simple) -> Simple:
        """Meet of two simples: the common refinement of their partitions.

        Divisibility is refinement of non-crossing partitions, and the common
        refinement of two of them is non-crossing (Birman, Ko and Lee, Adv.
        Math. 1998).  Its blocks are the intersections of an a-block with a
        b-block: i maps to the next element on its a-cycle in its b-block.
        """
        n = len(a)
        block = [-1] * n
        for i in range(n):
            j = i
            while block[j] < 0:
                block[j] = i
                j = b[j]
        out = []
        for i in range(n):
            j = a[i]
            while block[j] != block[i]:
                j = a[j]
            out.append(j)
        return tuple(out)

    def join(self, a: Simple, b: Simple) -> Simple:
        # Prefixes and suffixes of a simple coincide, so the right meet of the
        # complements is their meet, and the join is its left complement.
        m = self.meet(self.complement(a), self.complement(b))
        return self.tau(self.complement(m), -1 % self.delta_order)

    @staticmethod
    def _same_cycle(s: Simple, i: int, j: int) -> bool:
        x = s[i]
        while x != i:
            if x == j:
                return True
            x = s[x]
        return False


@functools.cache
def dual_structure(n: int) -> DualStructure:
    return DualStructure(n)
