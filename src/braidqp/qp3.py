"""Complete quasipositivity decision for 3-strand braids.

Every 3-braid is conjugate to X(p, a) = Delta^p sigma1^{a1} sigma2^{a2}
sigma1^{a3} ... with positive alternating exponents.  Conjugacy-preserving
elementary reductions shrink such a pair until every exponent is at least 2
and the Garside power has the parity of the exponent count; on reduced pairs
closed-form bounds (coming from the signature of the closure and an explicit
family of quasipositive bands) decide most cases, and the rest recurse on
replacing one exponent by 1, with failed branches memoized by a sign flag
that survives rotations of the exponent vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .artin import artin_structure
from .core import NormalForm
from .words import BraidWord, StructureKind


@dataclass(frozen=True)
class PAForm:
    """The pair (p, a) encoding Delta^p sigma1^{a1} sigma2^{a2} ... in Br_3."""

    p: int
    a: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(x < 1 for x in self.a):
            raise ValueError("exponents must be positive")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def e(self) -> int:
        """Algebraic length 3p + sum(a)."""
        return 3 * self.p + sum(self.a)


def is_reduced(pa: PAForm) -> bool:
    """No elementary reduction applies: n <= 1, or (1,1) with even p,
    or matching parity with every exponent at least 2."""
    n = pa.n
    if n <= 1:
        return True
    if pa.a == (1, 1) and pa.p % 2 == 0:
        return True
    return (n - pa.p) % 2 == 0 and all(x >= 2 for x in pa.a)


def reduce(pa: PAForm) -> PAForm:
    """Apply elementary reductions until none applies.

    The result is conjugate to the input (merges of the two end runs, removal
    of an exponent 1 with its neighbours decremented, rotations of the vector
    when the parities of p and n agree, and twisting by the half twist)."""
    p, a = _reduce(pa.p, list(pa.a))
    return PAForm(p, tuple(a))


def _reduce(p: int, a: list[int]) -> tuple[int, list[int]]:
    """The reduction loop behind ``reduce`` and the recursion of ``_qp3``.

    A negative entry is the recursion's flag on its absolute value, so entries
    are compared and combined through ``abs``: an entry the reductions do not
    touch keeps its sign, one they decrement or merge becomes positive.  An
    exponent 1 is never flagged."""
    while True:
        a = _merge_zeros(a)
        n = len(a)
        if n <= 1:
            return p, a
        if (n - p) % 2 != 0:
            # merge the end runs: the two outer runs use the same generator
            a = [abs(a[0]) + abs(a[-1])] + a[1:-1]
            continue
        if a == [1, 1] or all(abs(x) >= 2 for x in a):
            return p, a  # for [1, 1], p is even here
        # rotate an exponent 1 to the front (a conjugation when p = n mod 2)
        i = a.index(1)
        a = a[i:] + a[:i]
        p += 1
        if a[-1] == 1:
            # the 1-run at each end: the ends merge around Delta
            if n == 3:
                a = [abs(a[1]) - 1]
            else:
                a[1] = abs(a[1]) + abs(a[-2]) - 1
                a = [a[n - 3]] + a[1 : n - 3]
        else:
            # remove the leading 1, decrementing its two cyclic neighbours
            a = a[1:]
            a[0] = abs(a[0]) - 1
            a[-1] = abs(a[-1]) - 1


def _merge_zeros(a: list[int]) -> list[int]:
    """Drop vanished runs: an interior zero fuses its two neighbours.

    A flagged vector of the recursion has no interior 1, so no interior zero
    arises on it and the fused entries here are never flagged."""
    while 0 in a:
        i = a.index(0)
        if i == 0 or i == len(a) - 1:
            # a vanished outer run: drop it (a half-twist conjugation when
            # the leading run vanishes, a plain equality at the end)
            a.pop(i)
        else:
            a = a[: i - 1] + [a[i - 1] + a[i + 1]] + a[i + 2 :]
    return a


def to_pa_form(w: BraidWord | NormalForm) -> PAForm:
    """Encode a 3-strand standard-structure element as a reduced pair.

    The result is conjugate to the input (reductions, rotations and
    half-twist conjugations are applied to reach the reduced shape)."""
    st = artin_structure(3)
    if isinstance(w, NormalForm):
        x = w
        if x.structure is not st:
            raise ValueError("expected a 3-strand standard-structure element")
    else:
        if w.structure.strands != 3 or w.structure.kind is not StructureKind.STANDARD:
            raise ValueError("expected a 3-strand standard-structure word")
        x = st.nf_from_word(w)
    letters = [atom for f in x.factors for atom in st.spell_simple(f)]
    # A word starting with sigma2 is conjugated by the half twist, which swaps
    # the generators and keeps the runs and the Garside power.
    runs = tuple(len(list(run)) for _, run in groupby(letters))
    return reduce(PAForm(x.p, runs))


def pa_form_element(pa: PAForm) -> NormalForm:
    """The braid X(p, a) as a normal form over standard Br_3."""
    st = artin_structure(3)
    out = st.nf(pa.p)
    for i, run in enumerate(pa.a):
        atom = st.atoms[i % 2]
        for _ in range(run):
            out = st.nf_right_multiply(out, atom)
    return out


def signature_nullity(pa: PAForm) -> tuple[int, int]:
    """(Sign + Null, Null) of the closure, in closed form.

    Requires a reduced pair with n >= 2 and a != (1,1); the sum equals
    p + n - e, and the nullity is 1 exactly for the all-twos vector with
    p + n divisible by 4."""
    if not is_reduced(pa) or pa.n < 2 or pa.a == (1, 1):
        raise ValueError("requires a reduced pair with n >= 2 and a != (1,1)")
    sign_plus_null = pa.p + pa.n - pa.e
    null = 1 if all(x == 2 for x in pa.a) and (pa.p + pa.n) % 4 == 0 else 0
    return sign_plus_null, null


def qp_half_twist_power(q: int, n: int) -> bool:
    """Quasipositivity of Delta^q sigma1^{-n} (n >= 0), in closed form."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return (q == 0 and n == 0) or (q >= 0 and 2 * n < 5 * q)


def _qp3(p: int, a: list[int], e: int) -> bool:
    """The recursion on signed exponent vectors.

    A negative entry records that replacing that entry by 1 is already known
    not to give a quasipositive braid; the flag survives reductions that do
    not touch the entry, and rotations keep the vector almost reduced so
    only the first entry ever needs replacing."""
    p, a = _reduce(p, a)
    n = len(a)
    if p >= 0:
        return True
    if not 0 < p + n < 2 * e:
        return False
    if 3 * n + 5 * p >= 0:
        return True
    for _ in range(n):
        if a[0] > 0:
            e1 = e - a[0] + 1
            if e1 >= 0 and _qp3(p, [1] + a[1:], e1):
                return True
            a[0] = -a[0]
        a = a[1:] + [a[0]]  # cyclic rotation, carrying the sign flag
    return False


def qp3(pa: PAForm) -> bool:
    """Whether X(p, a) is quasipositive, for any pair: reduced or not."""
    return _qp3(pa.p, list(pa.a), pa.e)


def is_quasipositive_3braid(w: BraidWord | NormalForm) -> bool:
    return qp3(to_pa_form(w))
