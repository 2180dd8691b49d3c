"""Conjugacy via cyclic sliding and the sliding-circuits set.

An element is repeatedly conjugated by its preferred prefix (the meet of the
initial factor and the complement of the final factor); the trajectory is
eventually periodic and the union of all periodic trajectories in a conjugacy
class is the sliding-circuits set, a finite conjugacy invariant.  It is closed
and connected under conjugation by minimal simple elements, which is how the
whole set is enumerated from one representative.  Every routine that conjugates
keeps a witness so membership answers come with an explicit conjugator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import GarsideStructure, NormalForm, Simple

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
    """tau^{-p}(A_1): the first factor pulled past the Garside power."""
    _require_positive_length(x)
    return x.structure.tau(x.factors[0], -x.p)


def final_factor(x: NormalForm) -> Simple:
    _require_positive_length(x)
    return x.factors[-1]


def cycling(x: NormalForm) -> NormalForm:
    """Conjugate by the initial factor: move A_1 to the end."""
    _require_positive_length(x)
    st = x.structure
    rest = st.nf(x.p, x.factors[1:])
    return st.nf_right_multiply(rest, initial_factor(x))


def decycling(x: NormalForm) -> NormalForm:
    """Conjugate by the inverse of the final factor: move A_r to the front."""
    _require_positive_length(x)
    st = x.structure
    rest = st.nf(x.p, x.factors[:-1])
    return st.nf_left_multiply(x.factors[-1], rest)


def preferred_prefix(x: NormalForm) -> Simple:
    """Meet of the initial factor and the complement of the final factor."""
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


def slide_to_circuit(
    x: NormalForm, max_orbit: int = DEFAULT_MAX_ORBIT
) -> tuple[NormalForm, NormalForm]:
    """Iterate cyclic sliding until the trajectory repeats.

    Returns the first element of the periodic part together with a conjugator
    ``c`` such that ``c^{-1} x c`` is that element.
    """
    st = x.structure
    traj = [x]
    cum = [st.nf(0)]
    index = {x: 0}
    while True:
        y = traj[-1]
        c = preferred_prefix(y) if y.factors else st.identity
        z = st.nf_conjugate_by_simple(y, c) if c != st.identity else y
        if z in index:
            j = index[z]
            return traj[j], cum[j]
        index[z] = len(traj)
        traj.append(z)
        cum.append(st.nf_right_multiply(cum[-1], c))
        if len(traj) > max_orbit:
            raise ResourceCapExceeded("sliding trajectory", max_orbit)


def in_sliding_circuit(x: NormalForm, max_orbit: int = DEFAULT_MAX_ORBIT) -> bool:
    """Whether cyclic sliding eventually returns to x itself."""
    seen = {x}
    y = cyclic_sliding(x)
    while y not in seen:
        seen.add(y)
        y = cyclic_sliding(y)
        if len(seen) > max_orbit:
            raise ResourceCapExceeded("sliding trajectory", max_orbit)
    # the first repeated value is the entry point of the periodic part
    return y == x


def cycling_orbit(
    x: NormalForm, max_orbit: int = DEFAULT_MAX_ORBIT
) -> list[NormalForm]:
    """The trajectory of iterated cycling from x up to the first repeat."""
    return _orbit(x, cycling, max_orbit, "cycling orbit")


def decycling_orbit(
    x: NormalForm, max_orbit: int = DEFAULT_MAX_ORBIT
) -> list[NormalForm]:
    return _orbit(x, decycling, max_orbit, "decycling orbit")


def _orbit(x, step, max_orbit, what):
    if not x.factors:
        return [x]  # pure Garside powers are fixed by both operations
    out = [x]
    seen = {x}
    while True:
        y = step(out[-1])
        if y in seen:
            return out
        seen.add(y)
        out.append(y)
        if len(out) > max_orbit:
            raise ResourceCapExceeded(what, max_orbit)


# ----- transports -------------------------------------------------------


def cycling_transport(y: NormalForm, u: NormalForm) -> NormalForm:
    """Conjugator u transported along one cycling step on both sides."""
    st = y.structure
    yu = st.nf_conjugate(y, u)
    t = st.nf_inverse(st.nf_of_simple(initial_factor(y)))
    t = st.nf_multiply(t, u)
    return st.nf_right_multiply(t, initial_factor(yu))


def sliding_transport(y: NormalForm, u: NormalForm) -> NormalForm:
    """Conjugator u transported along one cyclic-sliding step on both sides."""
    st = y.structure
    yu = st.nf_conjugate(y, u)
    t = st.nf_inverse(st.nf_of_simple(preferred_prefix(y)))
    t = st.nf_multiply(t, u)
    return st.nf_right_multiply(t, preferred_prefix(yu))


# ----- the sliding-circuits set -----------------------------------------


def min_sc_conjugator(
    y: NormalForm, atom: int, max_orbit: int = DEFAULT_MAX_ORBIT
) -> Simple:
    """Least simple s above the given atom with y^s back in sliding circuits.

    y must itself lie in its sliding-circuits set; the Garside element always
    works, so the meet of all working simples is well defined (and itself
    works, by the convexity of the conjugator set).
    """
    st = y.structure
    a = st.atoms[atom]
    best = st.delta
    for s in st.all_simples:
        if s == st.identity or not st.is_prefix(a, s):
            continue
        if in_sliding_circuit(st.nf_conjugate_by_simple(y, s), max_orbit):
            best = st.meet(best, s)
    return best


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
    """The sliding-circuits set of a conjugacy class, with witnesses."""

    structure: GarsideStructure
    base: NormalForm  # the input element all witnesses start from
    elements: dict[NormalForm, NormalForm] = field(default_factory=dict)
    arrows: list[Arrow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: NormalForm) -> bool:
        return x in self.elements


def sliding_circuits(
    x: NormalForm,
    max_sc: int = DEFAULT_MAX_SC,
    max_orbit: int = DEFAULT_MAX_ORBIT,
) -> SlidingCircuits:
    """Enumerate the whole sliding-circuits set of the class of x."""
    st = x.structure
    rep, w0 = slide_to_circuit(x, max_orbit)
    sc = SlidingCircuits(st, x)
    sc.elements[rep] = w0
    frontier = [rep]
    while frontier:
        y = frontier.pop()
        wy = sc.elements[y]
        minima = {min_sc_conjugator(y, a, max_orbit) for a in range(len(st.atoms))}
        candidates = sorted(minima, key=st.norm)
        # keep only the divisibility-minimal candidates
        arrows = [
            c
            for c in candidates
            if not any(d != c and st.is_prefix(d, c) for d in candidates)
        ]
        trivial = not y.factors
        iota = st.identity if trivial else initial_factor(y)
        dphi = st.identity if trivial else st.complement(final_factor(y))
        for c in arrows:
            z = st.nf_conjugate_by_simple(y, c)
            sc.arrows.append(
                Arrow(
                    y,
                    c,
                    z,
                    trivial or st.is_prefix(c, iota),
                    trivial or st.is_prefix(c, dphi),
                )
            )
            if z not in sc.elements:
                sc.elements[z] = st.nf_right_multiply(wy, c)
                frontier.append(z)
                if len(sc.elements) > max_sc:
                    raise ResourceCapExceeded("sliding-circuits set", max_sc)
    return sc


def are_conjugate(
    x: NormalForm,
    y: NormalForm,
    max_sc: int = DEFAULT_MAX_SC,
    max_orbit: int = DEFAULT_MAX_ORBIT,
) -> tuple[bool, NormalForm | None]:
    """Decide conjugacy; on success also return c with c^{-1} x c = y."""
    st = x.structure
    if y.structure is not st:
        raise ValueError("elements live over different structures")
    if st.nf_algebraic_length(x) != st.nf_algebraic_length(y):
        return False, None
    sc = sliding_circuits(x, max_sc, max_orbit)
    rep, wy = slide_to_circuit(y, max_orbit)
    if rep not in sc.elements:
        return False, None
    c = st.nf_multiply(sc.elements[rep], st.nf_inverse(wy))
    return True, c


def summit_inf_sup(x: NormalForm, max_orbit: int = DEFAULT_MAX_ORBIT) -> tuple[int, int]:
    """(inf, sup) over the sliding-circuits set, i.e. the summit values."""
    rep, _ = slide_to_circuit(x, max_orbit)
    return rep.inf, rep.sup
