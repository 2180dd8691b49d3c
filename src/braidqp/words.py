"""Braid words over a declared Garside structure on the braid group Br_n.

A structure is identified by the number of strands and a kind:

* ``standard`` -- atoms are the Artin generators sigma_1 .. sigma_{n-1},
  the Garside element is the half twist Delta;
* ``dual`` -- atoms are the band generators a_{ts} (n >= t > s >= 1),
  the Garside element is delta = sigma_{n-1} ... sigma_1.

A :class:`BraidWord` is a Garside-element power followed by a sequence of
signed atoms.  The grammar is whitespace-separated items::

    word := item*
    item := INT | NAME ('^' INT)?

``INT`` is a signed Artin generator index (``-2`` means sigma_2^{-1}).
``D`` / ``d`` (optionally with an exponent) denote the Garside element and may
appear anywhere; they are folded into the leading power by twisting the
letters they move past.  Named atoms: ``s1`` .. ``s9`` are sigma_i, and for
the dual structure ``a31``-style names address arbitrary bands (``a10_1``
once the larger strand reaches 10), with sugar ``a`` = a31, ``b`` = a42 and
``s0`` = a_{n,1}.

``to_dual`` and ``to_standard`` translate words between the two structures on
the same group: sigma_i is the band a_{i+1,i}, and a_{ts} is
R sigma_s R^{-1} with R = sigma_{t-1} ... sigma_{s+1} (Birman, Ko and Lee,
Adv. Math. 1998); delta = sigma_{n-1} ... sigma_1 and Delta^2 = delta^n.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass


class StructureKind(enum.Enum):
    STANDARD = "standard"
    DUAL = "dual"


@dataclass(frozen=True)
class StructureId:
    """Identifies one of the two Garside structures on Br_n."""

    strands: int
    kind: StructureKind

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise ValueError(f"need at least 2 strands, got {self.strands}")

    @property
    def num_atoms(self) -> int:
        n = self.strands
        return n - 1 if self.kind is StructureKind.STANDARD else n * (n - 1) // 2

    @property
    def garside_norm(self) -> int:
        """Letter length of the Garside element."""
        n = self.strands
        return n * (n - 1) // 2 if self.kind is StructureKind.STANDARD else n - 1

    # Canonical atom enumeration.  Standard: index i -> sigma_{i+1}.
    # Dual: index i -> band pair (t, s), t > s, pairs in lexicographic order.
    def atom_pairs(self) -> tuple[tuple[int, int], ...]:
        if self.kind is not StructureKind.DUAL:
            raise ValueError("atom pairs only exist for the dual structure")
        return _band_pairs(self.strands)

    def atom_index_of_artin(self, i: int) -> int:
        """Atom index of sigma_i in the canonical enumeration."""
        if not 1 <= i <= self.strands - 1:
            raise ValueError(f"sigma_{i} does not exist in Br_{self.strands}")
        if self.kind is StructureKind.STANDARD:
            return i - 1
        return self.atom_index_of_band(i + 1, i)

    def atom_index_of_band(self, t: int, s: int) -> int:
        if self.kind is not StructureKind.DUAL:
            raise ValueError("band atoms only exist in the dual structure")
        if not self.strands >= t > s >= 1:
            raise ValueError(f"invalid band ({t},{s}) for Br_{self.strands}")
        # the pairs (u, r) with u < t come first: 1 + 2 + ... + (t - 2) of them
        return (t - 1) * (t - 2) // 2 + s - 1

    def atom_name(self, index: int) -> str:
        """Serialized token for an atom (numeric for Artin generators)."""
        if self.kind is StructureKind.STANDARD:
            return str(index + 1)
        t, s = self.atom_pairs()[index]
        if t == s + 1:
            return str(s)
        return f"a{t}{s}" if t < 10 else f"a{t}_{s}"

    def twist_atom(self, index: int, k: int = 1) -> int:
        """Image of an atom under conjugation by the k-th Garside power."""
        n = self.strands
        if self.kind is StructureKind.STANDARD:
            # The half twist reverses the strand order; its square is central.
            return index if k % 2 == 0 else (n - 2) - index
        t, s = self.atom_pairs()[index]
        t, s = (t - 1 + k) % n + 1, (s - 1 + k) % n + 1
        if t < s:
            t, s = s, t
        return self.atom_index_of_band(t, s)


@functools.cache
def _band_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((t, s) for t in range(2, n + 1) for s in range(1, t))


@dataclass(frozen=True)
class BraidWord:
    """Garside power ``g`` followed by signed atoms ``(atom_index, +-1)``."""

    structure: StructureId
    g: int = 0
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for index, sign in self.letters:
            if not 0 <= index < self.structure.num_atoms:
                raise ValueError(f"atom index {index} out of range")
            if sign not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {sign}")


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending token position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at token {position})")
        self.position = position


_NAME_RE = re.compile(r"(?P<name>[A-Za-z][A-Za-z0-9_]*)(\^(?P<exp>-?\d+))?\Z")
_INT_RE = re.compile(r"-?\d+\Z")


def _atom_for_name(name: str, structure: StructureId) -> int:
    n = structure.strands
    if name.startswith("s") and name[1:].isdigit():
        i = int(name[1:])
        if i == 0 and structure.kind is StructureKind.DUAL:
            return structure.atom_index_of_band(n, 1)
        return structure.atom_index_of_artin(i)
    if structure.kind is StructureKind.DUAL:
        if name == "a" and n >= 3:
            return structure.atom_index_of_band(3, 1)
        if name == "b" and n >= 4:
            return structure.atom_index_of_band(4, 2)
        if band := re.fullmatch(r"a([1-9])([1-9])|a([1-9]\d+)_([1-9]\d*)", name):
            t, s = (int(g) for g in band.groups() if g is not None)
            return structure.atom_index_of_band(t, s)
    raise ValueError(f"unknown atom name {name!r}")


def parse_word(text: str, structure: StructureId) -> BraidWord:
    """Parse word text into a :class:`BraidWord` (empty text is the identity)."""
    g = 0
    letters: list[tuple[int, int]] = []

    def fold_garside(k: int) -> None:
        nonlocal g, letters
        # u * D^k = D^k * twist^k(u): move the power to the front.
        letters = [(structure.twist_atom(i, k), sign) for i, sign in letters]
        g += k

    for pos, token in enumerate(text.split(), start=1):
        if _INT_RE.match(token):
            i = int(token)
            if i == 0:
                raise WordSyntaxError("generator index 0 is not allowed", pos)
            try:
                index = structure.atom_index_of_artin(abs(i))
            except ValueError as exc:
                raise WordSyntaxError(str(exc), pos) from None
            letters.append((index, 1 if i > 0 else -1))
            continue
        m = _NAME_RE.match(token)
        if m is None:
            raise WordSyntaxError(f"malformed token {token!r}", pos)
        name = m.group("name")
        exp = int(m.group("exp")) if m.group("exp") is not None else 1
        if name in ("D", "d"):
            fold_garside(exp)
            continue
        try:
            index = _atom_for_name(name, structure)
        except ValueError as exc:
            raise WordSyntaxError(str(exc), pos) from None
        sign = 1 if exp > 0 else -1
        letters.extend([(index, sign)] * abs(exp))
    return BraidWord(structure, g, tuple(letters))


def word_to_text(word: BraidWord) -> str:
    """Serialize a word; ``parse_word`` is a left inverse of this."""
    items: list[str] = []
    if word.g != 0:
        items.append(f"D^{word.g}")
    for index, sign in word.letters:
        name = word.structure.atom_name(index)
        if name.lstrip("-").isdigit():
            items.append(name if sign > 0 else f"-{name}")
        else:
            items.append(name if sign > 0 else f"{name}^-1")
    return " ".join(items)


def algebraic_length(word: BraidWord) -> int:
    """Exponent sum: the image under the homomorphism sending atoms to 1."""
    return word.g * word.structure.garside_norm + sum(s for _, s in word.letters)


def to_dual(word: BraidWord) -> BraidWord:
    """The same braid as a word over the dual structure; sigma_i is a_{i+1,i}."""
    if word.structure.kind is not StructureKind.STANDARD:
        raise ValueError("to_dual translates words over the standard structure")
    n = word.structure.strands
    dual = StructureId(n, StructureKind.DUAL)
    # Delta^g = delta^{n m} Delta^r with g = 2m + r; Delta is the positive
    # word (sigma_1)(sigma_2 sigma_1)...(sigma_{n-1} ... sigma_1)
    m, r = divmod(word.g, 2)
    half_twist = [(j, 1) for i in range(1, n) for j in range(i, 0, -1)] * r
    letters = tuple(
        (dual.atom_index_of_band(i + 1, i), sign)
        for i, sign in half_twist + [(index + 1, sign) for index, sign in word.letters]
    )
    return BraidWord(dual, n * m, letters)


def band_root(t: int, s: int) -> list[tuple[int, int]]:
    """Standard letters of R = sigma_{t-1} ... sigma_{s+1}: a_{ts} = R sigma_s R^{-1}."""
    return [(i - 1, 1) for i in range(t - 1, s, -1)]


def to_standard(word: BraidWord) -> BraidWord:
    """The same braid as a word over the standard structure.

    a_{ts}^{+-1} becomes R sigma_s^{+-1} R^{-1} with R = sigma_{t-1} ... sigma_{s+1}.
    """
    if word.structure.kind is not StructureKind.DUAL:
        raise ValueError("to_standard translates words over the dual structure")
    n = word.structure.strands
    pairs = _band_pairs(n)
    # delta^g = Delta^{2m} delta^r with g = n m + r, delta = sigma_{n-1} ... sigma_1
    m, r = divmod(word.g, n)
    letters = [(i - 1, 1) for i in range(n - 1, 0, -1)] * r
    for index, sign in word.letters:
        t, s = pairs[index]
        root = band_root(t, s)
        letters += root + [(s - 1, sign)] + [(i, -1) for i, _ in reversed(root)]
    return BraidWord(StructureId(n, StructureKind.STANDARD), 2 * m, tuple(letters))
