"""Conjugacy via cyclic sliding and the sliding-circuits set.

An element is repeatedly conjugated by its preferred prefix (the meet of the
initial factor and the complement of the final factor); the trajectory is
eventually periodic and the union of all periodic trajectories in a conjugacy
class is the sliding-circuits set, a finite conjugacy invariant.  It is closed
and connected under conjugation by minimal simple elements, which is how the
whole set is enumerated from one representative.  Every routine that conjugates
keeps a witness so membership answers come with an explicit conjugator.

Each arrow of the enumeration is a minimal simple conjugator above an atom.
The simples above an atom that keep an element inside the sliding-circuits set
are closed under meets (Gebhardt and Gonzalez-Meneses, "The cyclic sliding
operation in Garside groups", Math. Z. 2010), and every arrow is black or grey:
its conjugator divides the initial factor or the complement of the final
factor.  So each atom's least working simple is searched for level by level
among the prefixes of those two simples only, never among all simples;
candidates whose conjugate leaves the summit inf and sup are skipped before
any sliding.

One enumeration keeps a memo of which elements lie on a circuit, so a
candidate's sliding walk stops at the first element an earlier walk of the
same enumeration already decided.  The enumeration is grown lazily, so that
a conjugacy test stops as soon as it meets the circuit element it looks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, Iterator

from .core import NormalForm, Simple, mult

DEFAULT_MAX_SC = 100_000
DEFAULT_MAX_ORBIT = 100_000


class ResourceCapExceeded(RuntimeError):
    """Raised when an enumeration grows past the configured cap."""

    def __init__(self, what: str, cap: int) -> None:
        super().__init__(f"{what} exceeded the cap of {cap} elements")
        self.what = what
        self.cap = cap


# ----- cycling, decycling and cyclic sliding ----------------------------


def _require_positive_length(x: NormalForm) -> None:
    if not x.factors:
        raise ValueError("undefined for a pure Garside power (canonical length 0)")


def initial_factor(x: NormalForm) -> Simple:
    """tau^{-p}(A_1): the first factor pulled past the Garside power.

    Raises ValueError on a pure Garside power, which has no factors.
    """
    _require_positive_length(x)
    return x.structure.tau(x.factors[0], -x.p)


def final_factor(x: NormalForm) -> Simple:
    """The last factor A_r.  Raises ValueError on a pure Garside power."""
    _require_positive_length(x)
    return x.factors[-1]


def cycling(x: NormalForm) -> NormalForm:
    """Conjugate by the initial factor: move A_1 to the end."""
    if not x.factors:
        return x  # pure Garside powers are fixed points
    st = x.structure
    rest = st.nf(x.p, x.factors[1:])
    return st.nf_right_multiply(rest, initial_factor(x))


def decycling(x: NormalForm) -> NormalForm:
    """Conjugate by the inverse of the final factor: move A_r to the front."""
    if not x.factors:
        return x  # pure Garside powers are fixed points
    st = x.structure
    rest = st.nf(x.p, x.factors[:-1])
    return st.nf_left_multiply(x.factors[-1], rest)


def preferred_prefix(x: NormalForm) -> Simple:
    """Meet of the initial factor and the complement of the final factor.

    Raises ValueError on a pure Garside power, which has no factors.
    """
    _require_positive_length(x)
    st = x.structure
    return st.meet(initial_factor(x), st.complement(final_factor(x)))


def cyclic_sliding(x: NormalForm) -> NormalForm:
    if not x.factors:
        return x  # pure Garside powers are fixed points
    p = preferred_prefix(x)
    if p == x.structure.identity:
        return x
    return x.structure.nf_conjugate_by_simple(x, p)


def _walk(
    x: NormalForm,
    step: Callable[[NormalForm], NormalForm],
    max_orbit: int,
    what: str,
    stop: Container[NormalForm] = (),
) -> tuple[list[NormalForm], int]:
    """Iterate step from x up to the first repeat or the first element of stop.

    Returns the distinct elements of the walk, in order, and the index among
    them of the element the last step leads back to, or -1 when the last step
    reaches an element of ``stop`` instead.  Raises ResourceCapExceeded,
    naming ``what``, past max_orbit elements.
    """
    walk = [x]
    index = {x: 0}
    while True:
        y = step(walk[-1])
        if y in index:
            return walk, index[y]
        if y in stop:
            return walk, -1
        index[y] = len(walk)
        walk.append(y)
        if len(walk) > max_orbit:
            raise ResourceCapExceeded(what, max_orbit)


def slide_to_circuit(
    x: NormalForm, max_orbit: int = DEFAULT_MAX_ORBIT
) -> tuple[NormalForm, NormalForm]:
    """Iterate cyclic sliding until the trajectory repeats.

    Returns the first element of the periodic part together with a conjugator
    ``c`` such that ``c^{-1} x c`` is that element: the product of the
    preferred prefixes of the elements before it.
    """
    st = x.structure
    walk, j = _walk(x, cyclic_sliding, max_orbit, "sliding trajectory")
    c = st.nf(0)
    for y in walk[:j]:
        c = st.nf_right_multiply(c, preferred_prefix(y))
    return walk[j], c


def in_sliding_circuit(
    x: NormalForm,
    max_orbit: int = DEFAULT_MAX_ORBIT,
    *,
    memo: dict[NormalForm, bool] | None = None,
) -> bool:
    """Whether cyclic sliding eventually returns to x itself.

    ``memo`` maps elements already decided to whether they lie on a circuit;
    the walk reads it and records every element it passes.  Each element
    marked True has its whole circuit marked True, so a walk that reaches a
    marked element has shown that none of its own elements is on a circuit:
    a marked False element is off every circuit, and a circuit through a
    marked True one would be that element's circuit, which is all marked.
    """
    if memo is None:
        memo = {}
    if x in memo:
        return memo[x]
    walk, j = _walk(x, cyclic_sliding, max_orbit, "sliding trajectory", memo)
    for k, y in enumerate(walk):
        memo[y] = 0 <= j <= k
    return j == 0


def cycling_orbit(
    x: NormalForm, max_orbit: int = DEFAULT_MAX_ORBIT
) -> list[NormalForm]:
    """The trajectory of iterated cycling from x up to the first repeat."""
    return _walk(x, cycling, max_orbit, "cycling orbit")[0]


def decycling_orbit(
    x: NormalForm, max_orbit: int = DEFAULT_MAX_ORBIT
) -> list[NormalForm]:
    return _walk(x, decycling, max_orbit, "decycling orbit")[0]


# ----- the sliding-circuits set -----------------------------------------


def min_sc_conjugator(
    y: NormalForm, atom: int, max_orbit: int = DEFAULT_MAX_ORBIT
) -> Simple:
    """Least simple s above the given atom with y^s back in sliding circuits.

    y must itself lie in its sliding-circuits set.  The search always ends:
    the Garside element works, as it commutes with sliding.
    """
    st = y.structure
    return _least_working(y, st.atoms[atom], st.delta, max_orbit, {})[0]


def _least_working(
    y: NormalForm, a: Simple, top: Simple, max_orbit: int, memo: dict[NormalForm, bool]
) -> tuple[Simple, NormalForm] | None:
    """The least simple s with a <= s <= top and y^s in sliding circuits, with y^s.

    None if there is none.  The search climbs from the atom a one norm level
    at a time, through prefixes of top only.  The working simples above a are
    closed under meets, and so are the prefixes of top, so the first level
    that holds a working simple holds exactly one, the least.  Every arrow is
    black or grey: its conjugator divides the initial factor of y or the
    complement of its final factor (Gebhardt and Gonzalez-Meneses, "Solving
    the conjugacy problem in Garside groups by cyclic sliding", J. Symb.
    Comput. 45, 2010), so searching below those two finds every arrow.
    ``memo`` is handed to every in_sliding_circuit test.
    """
    st = y.structure
    level = [a] if st.is_prefix(a, top) else []
    while level:
        for s in level:
            z = st.nf_conjugate_by_simple(y, s)
            same_summit = z.p == y.p and len(z.factors) == len(y.factors)
            if same_summit and in_sliding_circuit(z, max_orbit, memo=memo):
                return s, z
        covers: set[Simple] = set()
        for s in level:
            rest = st.left_quotient(s, top)
            covers.update(mult(s, b) for i, b in enumerate(st.atoms) if st.atom_prefix(i, rest))
        level = sorted(covers)
    return None


@dataclass(frozen=True)
class Arrow:
    """A minimal conjugation between sliding-circuits elements."""

    source: NormalForm
    conjugator: Simple
    target: NormalForm
    black: bool  # conjugator divides the initial factor of the source
    grey: bool  # conjugator divides the complement of the final factor


@dataclass
class SlidingCircuits:
    """The sliding-circuits set of a conjugacy class, with witnesses.

    ``elements`` maps each element to a witness that conjugates the input
    onto it; ``arrows`` are the minimal conjugations found between them.
    """

    elements: dict[NormalForm, NormalForm] = field(default_factory=dict)
    arrows: list[Arrow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.elements)


def sliding_circuits(
    x: NormalForm,
    max_sc: int = DEFAULT_MAX_SC,
    max_orbit: int = DEFAULT_MAX_ORBIT,
) -> SlidingCircuits:
    """Enumerate the whole sliding-circuits set of the class of x."""
    sc = SlidingCircuits()
    for _ in grow_sliding_circuits(sc, x, max_sc, max_orbit):
        pass
    return sc


def grow_sliding_circuits(
    sc: SlidingCircuits, x: NormalForm, max_sc: int, max_orbit: int
) -> Iterator[NormalForm]:
    """Fill the empty sc with the sliding-circuits set of the class of x.

    Yields each element as soon as sc holds its witness, x's own circuit
    element first; elements and arrows come in the same depth-first order
    whether or not the caller stops early, so a membership test consumes it
    only up to the element it looks for.  Raises ResourceCapExceeded once
    more than max_sc elements are enumerated.  One memo of circuit
    membership serves every candidate test of the run.
    """
    st = x.structure
    memo: dict[NormalForm, bool] = {}
    rep, w0 = slide_to_circuit(x, max_orbit)
    sc.elements[rep] = w0
    yield rep
    frontier = [rep]
    while frontier:
        y = frontier.pop()
        wy = sc.elements[y]
        # a pure Garside power has no factors: every simple is below Delta
        tops = (initial_factor(y), st.complement(final_factor(y))) if y.factors else (st.delta,)
        conjugate: dict[Simple, NormalForm] = {}
        for a in st.atoms:
            for top in tops:
                hit = _least_working(y, a, top, max_orbit, memo)
                if hit is not None:
                    conjugate[hit[0]] = hit[1]
                    break
        candidates = sorted(conjugate, key=lambda s: (st.norm(s), s))
        # the divisibility-minimal candidates are the arrows
        for c in candidates:
            if any(d != c and st.is_prefix(d, c) for d in candidates):
                continue
            z = conjugate[c]
            black, grey = st.is_prefix(c, tops[0]), st.is_prefix(c, tops[-1])
            sc.arrows.append(Arrow(y, c, z, black, grey))
            if z not in sc.elements:
                sc.elements[z] = st.nf_right_multiply(wy, c)
                frontier.append(z)
                if len(sc.elements) > max_sc:
                    raise ResourceCapExceeded("sliding-circuits set", max_sc)
                yield z


def are_conjugate(
    x: NormalForm,
    y: NormalForm,
    max_sc: int = DEFAULT_MAX_SC,
    max_orbit: int = DEFAULT_MAX_ORBIT,
) -> tuple[bool, NormalForm | None]:
    """Decide conjugacy; on success also return c with c^{-1} x c = y.

    Both elements are slid to a circuit first.  Different summit (inf, sup)
    decide NO and equal circuit elements decide YES.  Otherwise the
    sliding-circuits set of x is grown from the circuit element already
    found, and the growth stops as soon as it reaches y's circuit element:
    a YES enumerates only part of the set, a NO all of it.  ``max_sc`` bounds
    the elements enumerated, so a YES found before the cap returns even when
    the whole set is larger than the cap, while a NO raises
    ResourceCapExceeded whenever the whole set is larger than the cap.
    """
    st = x.structure
    if y.structure is not st:
        raise ValueError("elements live over different structures")
    if st.nf_algebraic_length(x) != st.nf_algebraic_length(y):
        return False, None
    rx, wx = slide_to_circuit(x, max_orbit)
    ry, wy = slide_to_circuit(y, max_orbit)
    if (rx.inf, rx.sup) != (ry.inf, ry.sup):
        return False, None
    if rx != ry:
        # rx lies on its circuit, so its set carries witnesses from rx itself;
        # the membership test consumes the growth only up to ry
        sc = SlidingCircuits()
        if ry not in grow_sliding_circuits(sc, rx, max_sc, max_orbit):
            return False, None
        wx = st.nf_multiply(wx, sc.elements[ry])
    return True, st.nf_multiply(wx, st.nf_inverse(wy))

