"""Independent invariants of braids, computed without the program's code.

An Artin word is a list of ``(i, sign)`` pairs for sigma_i^sign, 1 <= i < n.
Its fingerprint is the pair (strand permutation, reduced Burau matrix at a
fixed point ``T`` modulo the prime ``P``).  Equal braids have equal
fingerprints; different fingerprints prove different braids.  The trace
powers of the Burau matrix determine its characteristic polynomial, and the
characteristic polynomial and the permutation cycle type are conjugacy
invariants, so a difference in either proves two braids non-conjugate.

Dual band generators are translated with the Birman-Ko-Lee convention
a_{ts} = (sigma_{t-1} ... sigma_{s+1}) sigma_s (sigma_{s+1}^-1 ... sigma_{t-1}^-1),
and the dual Garside element is delta = sigma_{n-1} ... sigma_1.

A letter ``(0, m)`` stands for the m-th power of the full twist Delta^2,
which is central, fixes every strand and acts on the reduced Burau module
as the scalar t^n; it keeps the words of large Garside powers short.
"""

from __future__ import annotations

P = (1 << 31) - 1
T = 1_234_567_891
T_INV = pow(T, P - 2, P)


def band_pairs(n: int) -> list[tuple[int, int]]:
    """The dual atom enumeration of the word grammar: (t, s), t > s, lexicographic."""
    return [(t, s) for t in range(2, n + 1) for s in range(1, t)]


def band_word(t: int, s: int) -> list[tuple[int, int]]:
    up = [(i, 1) for i in range(t - 1, s, -1)]
    down = [(i, -1) for i in range(s + 1, t)]
    return up + [(s, 1)] + down


def half_twist_word(n: int) -> list[tuple[int, int]]:
    """Delta = (sigma_1)(sigma_2 sigma_1) ... (sigma_{n-1} ... sigma_1)."""
    return [(i, 1) for j in range(1, n) for i in range(j, 0, -1)]


def dual_delta_word(n: int) -> list[tuple[int, int]]:
    return [(i, 1) for i in range(n - 1, 0, -1)]


def inverse_word(w: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(i, -s) for i, s in reversed(w)]


def algebraic_length(w: list[tuple[int, int]]) -> int:
    """Exponent sum of a word built by the benchmark (no full-twist letters)."""
    if any(i == 0 for i, _ in w):
        raise ValueError("algebraic_length needs the strand count for full twists")
    return sum(s for _, s in w)


class Fingerprint:
    """Permutation and reduced Burau matrix of a braid on n strands.

    The matrix is stored by columns: right multiplication by sigma_i^{+-1}
    only rewrites the columns i-2, i-1 and i (0-based).
    """

    __slots__ = ("n", "perm", "cols")

    def __init__(self, n: int, word=()) -> None:
        self.n = n
        self.perm = list(range(n))
        m = n - 1
        self.cols = [[int(r == c) for r in range(m)] for c in range(m)]
        self.apply(word)

    def apply(self, word) -> Fingerprint:
        """Right-multiply by the word, letter by letter."""
        m = self.n - 1
        cols = self.cols
        perm = self.perm
        for i, sign in word:
            if i == 0:
                scale = pow(T if sign > 0 else T_INV, self.n * abs(sign), P)
                self.cols = cols = [[x * scale % P for x in col] for col in cols]
                continue
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            j = i - 1
            c = cols[j]
            # column j of S_i^{+1} is (t, -t, 1) at rows j-1, j, j+1 and of
            # S_i^{-1} is (1, -1/t, 1/t): new col j-1 += a*c, col j = -t*c,
            # col j+1 += b*c
            t, a, b = (T, T, 1) if sign > 0 else (T_INV, 1, T_INV)
            if j >= 1:
                cols[j - 1] = [(u + a * v) % P for u, v in zip(cols[j - 1], c)]
            if j + 1 < m:
                cols[j + 1] = [(u + b * v) % P for u, v in zip(cols[j + 1], c)]
            cols[j] = [(-t * v) % P for v in c]
        return self

    def copy(self) -> Fingerprint:
        out = Fingerprint.__new__(Fingerprint)
        out.n, out.perm, out.cols = self.n, self.perm[:], [c[:] for c in self.cols]
        return out

    def key(self) -> tuple:
        return tuple(self.perm), tuple(tuple(c) for c in self.cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fingerprint) and self.key() == other.key()

    def is_identity(self) -> bool:
        return self == Fingerprint(self.n)

    def cycle_type(self) -> tuple[int, ...]:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            size = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = self.perm[x]
                size += 1
            if size:
                out.append(size)
        return tuple(sorted(out))

    def trace_powers(self) -> tuple[int, ...]:
        """tr(M^k) for k = 1 .. n-1; they fix the characteristic polynomial."""
        m = self.n - 1
        mat = [[self.cols[c][r] for c in range(m)] for r in range(m)]
        out = []
        power = [row[:] for row in mat]
        for _ in range(m):
            out.append(sum(power[r][r] for r in range(m)) % P)
            power = [
                [sum(power[r][k] * mat[k][c] for k in range(m)) % P for c in range(m)]
                for r in range(m)
            ]
        return tuple(out)

    def conjugacy_invariants(self) -> tuple:
        return self.cycle_type(), self.trace_powers()


def same_element(n: int, u, v) -> bool:
    return Fingerprint(n, u) == Fingerprint(n, v)


def conjugates_to(n: int, x, c, y) -> bool:
    """Whether c^-1 x c = y, tested as x c = c y."""
    return Fingerprint(n, list(x) + list(c)) == Fingerprint(n, list(c) + list(y))


def provably_not_conjugate(n: int, x, y) -> bool:
    return Fingerprint(n, x).conjugacy_invariants() != Fingerprint(n, y).conjugacy_invariants()
