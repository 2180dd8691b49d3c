"""Cycling, cyclic sliding, sliding circuits and conjugacy decisions."""

from __future__ import annotations

import random

import pytest

from braidqp import (
    Arrow,
    ArtinStructure,
    BraidWord,
    DualStructure,
    RecognitionQuery,
    ResourceCapExceeded,
    are_conjugate,
    artin_structure,
    cycling,
    cycling_orbit,
    cyclic_sliding,
    decycling,
    decycling_orbit,
    dual_structure,
    final_factor,
    in_sliding_circuit,
    initial_factor,
    min_sc_conjugator,
    parse_word,
    preferred_prefix,
    recognize,
    slide_to_circuit,
    sliding_circuits,
    to_dual,
    to_standard,
    verify_witness,
)
from braidqp.conjugacy import DEFAULT_MAX_ORBIT, DEFAULT_MAX_SC, conjugate_to_first
from conftest import (
    are_conjugate_reference,
    band_atom,
    conjugate_reference,
    is_black_or_grey,
    is_left_weighted,
    nf_validate,
    random_nf,
    random_word,
    sliding_circuits_reference,
    sliding_transport,
    word_inverse,
    word_product,
)


@pytest.fixture(scope="module")
def fixture16(dual4):
    """The rigid length-6 dual Br_4 element used as a reference fixture."""
    return dual4.nf_from_word(parse_word("D^-1 b a 1 2 a b", dual4.ident))


def test_fixture_normal_form(dual4):
    # the written 6-factor decomposition is already the left normal form
    st = dual4
    b = band_atom(st, 4, 2)
    a = band_atom(st, 3, 1)
    s1 = band_atom(st, 2, 1)
    s2 = band_atom(st, 3, 2)
    x = st.nf_from_word(parse_word("D^-1 b a 1 2 a b", st.ident))
    assert x.p == -1
    assert x.factors == (b, a, s1, s2, a, b)
    nf_validate(st, x)


def test_fixture_rigid_and_periodic(dual4, fixture16):
    x = fixture16
    assert preferred_prefix(x) == dual4.identity
    assert cyclic_sliding(x) == x
    assert in_sliding_circuit(x)
    # six cyclings return the Garside twist of the element
    z = x
    for _ in range(6):
        z = cycling(z)
    assert z == dual4.nf_tau(x, 1)


def test_fixture_cycling_orbit_is_whole_sc(dual4, fixture16):
    orbit = cycling_orbit(fixture16)
    assert len(orbit) == 24
    sc = sliding_circuits(fixture16)
    assert len(sc) == 24
    assert set(orbit) == set(sc.elements)


def test_sc_invariants_and_witnesses(std4, dual4):
    rng = random.Random(61)
    for st in (std4, dual4):
        for _ in range(6):
            x = random_nf(rng, st, rng.randrange(1, 7))
            sc = sliding_circuits(x)
            infs = {z.inf for z in sc.elements}
            lens = {z.canonical_length for z in sc.elements}
            assert len(infs) == 1 and len(lens) == 1
            for z, w in sc.elements.items():
                assert in_sliding_circuit(z)
                assert st.nf_conjugate(x, w) == z
                # closed under the Garside twist, cycling and decycling
                assert st.nf_tau(z, 1) in sc.elements
                if z.factors:
                    assert cycling(z) in sc.elements
                    assert decycling(z) in sc.elements


def test_sc_arrows_dichotomy(std4, dual4, fixture16):
    rng = random.Random(67)
    cases = [fixture16] + [
        random_nf(rng, st, rng.randrange(1, 6)) for st in (std4, dual4) for _ in range(3)
    ]
    for x in cases:
        st = x.structure
        sc = sliding_circuits(x)
        for arrow in sc.arrows:
            # black (below the initial factor) or grey (below the complement
            # of the final factor), recomputed from the source
            assert is_black_or_grey(arrow)
            assert st.nf_conjugate_by_simple(arrow.source, arrow.conjugator) == (
                arrow.target
            )
            assert arrow.target in sc.elements
            if not arrow.source.factors:
                continue
            # the final factor either absorbs the conjugator into a simple
            # or stays left weighted against it -- exactly one of the two
            phi = final_factor(arrow.source)
            product = st.nf_right_multiply(st.nf_of_simple(phi), arrow.conjugator)
            is_simple_product = product.p >= 0 and product.sup <= 1
            weighted = is_left_weighted(st, phi, arrow.conjugator)
            assert is_simple_product != weighted


def test_commuting_cycle_decycle_on_circuits(std4):
    rng = random.Random(71)
    st = std4
    found = 0
    for _ in range(60):
        x = random_nf(rng, st, rng.randrange(2, 7))
        z, _ = slide_to_circuit(x)
        if z.canonical_length < 2:
            continue
        cd = cycling(decycling(z))
        dc = decycling(cycling(z))
        if (
            cd.canonical_length == z.canonical_length
            or dc.canonical_length == z.canonical_length
        ):
            assert cd == dc == cyclic_sliding(z)
            found += 1
    assert found >= 5


def test_sliding_never_increases_length(std4):
    rng = random.Random(73)
    for _ in range(100):
        x = random_nf(rng, std4, rng.randrange(1, 8))
        seen = {x}
        while True:
            y = cyclic_sliding(x)
            assert y.canonical_length <= x.canonical_length
            if y in seen:
                break
            seen.add(y)
            x = y


def test_slide_to_circuit_conjugator(std4, dual4):
    rng = random.Random(79)
    for st in (std4, dual4):
        for _ in range(25):
            x = random_nf(rng, st, rng.randrange(8))
            z, c = slide_to_circuit(x)
            assert in_sliding_circuit(z)
            assert st.nf_conjugate(x, c) == z


def _meet_of_working(y, atom_idx):
    """Oracle: the meet of every simple above the atom that keeps y in SC."""
    st = y.structure
    atom = st.atoms[atom_idx]
    working = [
        t
        for t in st.all_simples
        if st.is_prefix(atom, t)
        and in_sliding_circuit(conjugate_reference(st, y, st.nf_of_simple(t)))
    ]
    out = working[0]
    for t in working[1:]:
        out = st.meet(out, t)
    return out


def test_min_sc_conjugator_minimality(std3, std4, dual4, dual5):
    rng = random.Random(83)
    for st in (std3, std4, dual4, dual5):
        for _ in range(6):
            y, _ = slide_to_circuit(random_nf(rng, st, rng.randrange(1, 6)))
            for atom_idx, atom in enumerate(st.atoms):
                s = min_sc_conjugator(y, atom_idx)
                assert st.is_prefix(atom, s)
                assert in_sliding_circuit(st.nf_conjugate_by_simple(y, s))
                # nothing strictly below s (above the atom) works
                for t in st.all_simples:
                    if t == s or t == st.identity or not st.is_prefix(atom, t):
                        continue
                    if in_sliding_circuit(st.nf_conjugate_by_simple(y, t)):
                        assert st.is_prefix(s, t) or not st.is_prefix(t, s)
                # the meet of all working conjugators is s, and it works
                meet_all = _meet_of_working(y, atom_idx)
                assert meet_all == s
                assert in_sliding_circuit(st.nf_conjugate_by_simple(y, meet_all))


def test_min_sc_conjugator_matches_meet_oracle_on_whole_sc():
    rng = random.Random(87)
    for n in (3, 4, 5):
        for make in (artin_structure, dual_structure):
            st = make(n)
            for _ in range(2):
                x = random_nf(rng, st, rng.randrange(2, 7 - n // 2))
                for y in sliding_circuits(x).elements:
                    for atom_idx in range(len(st.atoms)):
                        assert min_sc_conjugator(y, atom_idx) == _meet_of_working(
                            y, atom_idx
                        )


def _first_hit(y, atom_idx):
    """Per-atom scan: the first simple above the atom, in (norm, payload)
    order, whose conjugate of y lies in a sliding circuit."""
    st = y.structure
    for s in st.all_simples:
        if st.is_prefix(st.atoms[atom_idx], s) and in_sliding_circuit(
            st.nf_conjugate_by_simple(y, s)
        ):
            return s
    return st.delta


def _sliding_circuits_per_atom(x):
    """The enumeration with one first-hit scan per atom and element."""
    st = x.structure
    rep, w0 = slide_to_circuit(x)
    elements = {rep: w0}
    arrows = []
    frontier = [rep]
    while frontier:
        y = frontier.pop()
        candidates = sorted(
            {_first_hit(y, a) for a in range(len(st.atoms))},
            key=lambda s: (st.norm(s), s),
        )
        for c in candidates:
            if any(d != c and st.is_prefix(d, c) for d in candidates):
                continue
            z = st.nf_conjugate_by_simple(y, c)
            arrows.append(Arrow(y, c, z))
            if z not in elements:
                elements[z] = st.nf_right_multiply(elements[y], c)
                frontier.append(z)
    return elements, arrows


def test_sliding_circuits_match_per_atom_scan():
    rng = random.Random(91)
    for n in (3, 4, 5):
        # dual sets grow faster with the word length than standard ones
        for make, lengths in ((artin_structure, (4, 10)), (dual_structure, (1, 9 - n))):
            st = make(n)
            for _ in range(4):
                x = random_nf(rng, st, rng.randrange(*lengths))
                sc = sliding_circuits(x)
                elements, arrows = _sliding_circuits_per_atom(x)
                assert list(sc.elements.items()) == list(elements.items())
                assert sc.arrows == arrows
                # the scan looks at every simple, and still each arrow it
                # finds is black or grey
                assert all(map(is_black_or_grey, arrows))


def test_transport_identities(std4, dual4):
    rng = random.Random(89)
    for st in (std4, dual4):
        for _ in range(40):
            y = random_nf(rng, st, rng.randrange(1, 6))
            u = random_nf(rng, st, rng.randrange(5))
            yu = st.nf_conjugate(y, u)
            if not y.factors or not yu.factors:
                continue
            us = sliding_transport(y, u)
            assert st.nf_conjugate(cyclic_sliding(y), us) == cyclic_sliding(yu)


def test_transport_positivity_on_circuits(std4):
    # a positive conjugator between circuit elements transports positively
    st = std4
    rng = random.Random(97)
    found = 0
    for _ in range(80):
        x = random_nf(rng, st, rng.randrange(1, 6))
        sc = sliding_circuits(x)
        elems = list(sc.elements)
        y = rng.choice(elems)
        for arrow in sc.arrows:
            if arrow.source != y or not y.factors or not arrow.target.factors:
                continue
            u = st.nf_of_simple(arrow.conjugator)
            ut = sliding_transport(y, u)
            assert ut.p >= 0
            found += 1
            break
    assert found >= 30


def test_orbits_partition_sc(std4):
    rng = random.Random(101)
    st = std4
    for _ in range(5):
        x = random_nf(rng, st, rng.randrange(1, 6))
        sc = sliding_circuits(x)
        remaining = set(sc.elements)
        while remaining:
            z = next(iter(remaining))
            for w in cycling_orbit(z):
                assert w in sc.elements
                remaining.discard(w)
        remaining = set(sc.elements)
        while remaining:
            z = next(iter(remaining))
            for w in decycling_orbit(z):
                assert w in sc.elements
                remaining.discard(w)


def test_are_conjugate(std3):
    st = std3
    w = lambda t: st.nf_from_word(parse_word(t, st.ident))
    ok, c = are_conjugate(w("1 2"), w("2 1"))
    assert ok
    assert st.nf_conjugate(w("1 2"), c) == w("2 1")
    ok, c = are_conjugate(w("1 1"), w("1 2"))
    assert not ok and c is None
    rng = random.Random(103)
    for _ in range(20):
        x = random_nf(rng, st, rng.randrange(7))
        conj = random_nf(rng, st, 4)
        y = st.nf_conjugate(x, conj)
        ok, c = are_conjugate(x, y)
        assert ok
        assert st.nf_conjugate(x, c) == y
        # the conjugator read off the whole set of x, as without short cuts
        ry, wy = slide_to_circuit(y)
        assert c == st.nf_multiply(sliding_circuits(x).elements[ry], st.nf_inverse(wy))


@pytest.mark.parametrize("n", [4, 5])
def test_are_conjugate_agrees_across_structures(n):
    # the same pairs of braids in both structures: a standard word w against
    # c^-1 w c, with one letter of every second pair changed, and the dual
    # side read from to_dual of the same words
    std, du = artin_structure(n), dual_structure(n)
    translate = {std: to_dual, du: to_standard}
    rng = random.Random(911 + n)
    verdicts = []
    for k in range(60):
        w, c = random_word(rng, std, 14), random_word(rng, std, 6)
        v = word_product(word_product(word_inverse(c), w), c)
        if k % 2:
            letters = list(v.letters)
            i = rng.randrange(len(letters))
            letters[i] = (rng.randrange(n - 1), letters[i][1])
            v = BraidWord(std.ident, v.g, tuple(letters))
        pairs = {std: (w, v), du: (to_dual(w), to_dual(v))}
        answers = {st: are_conjugate(*map(st.nf_from_word, pair)) for st, pair in pairs.items()}
        assert answers[std][0] == answers[du][0]
        verdicts.append(answers[std][0])
        # each conjugator checks in its own structure and, translated, in the other
        for st, other in ((std, du), (du, std)):
            ok, conj = answers[st]
            if ok:
                moved = other.nf_from_word(translate[st](st.nf_to_word(conj)))
                for s, z in ((st, conj), (other, moved)):
                    x, y = map(s.nf_from_word, pairs[s])
                    assert s.nf_conjugate(x, z) == y
    assert True in verdicts and False in verdicts


# NO pairs that agree in strand-permutation cycle type and in the Burau
# characteristic polynomial: only the enumeration of SC(x) tells them apart
ENUMERATION_NO_PAIRS = {
    4: (
        "-1 1 1 -2 2 3 1 -2 -3 2 2 -2 -1 -1 2 3",
        "-2 1 -1 -1 1 3 -1 1 1 -2 2 1 1 -2 -3 2 2 -2 -1 -1 2 3 -3 -1 1 1 -1 2",
    ),
    5: (
        "-2 2 -3 -2 1 1 3 -4 -1 -3 -1 4 2 3 -4 3",
        "1 -2 1 -3 -4 2 -2 2 -3 -2 1 1 3 -4 -1 -3 -1 2 2 3 -4 3 -2 4 3 -1 2 -1",
    ),
    6: (
        "5 -4 2 -4 2 -5 2 -3 -2 3 -3 -2 -4 -3 1 3",
        "-1 2 5 -1 4 -4 5 -4 2 -4 2 -5 2 -3 -2 1 -3 -2 -4 -3 1 3 4 -4 1 -5 -2 1",
    ),
}


@pytest.mark.parametrize("n", sorted(ENUMERATION_NO_PAIRS))
def test_no_pairs_that_only_the_enumeration_decides(n):
    std = artin_structure(n)
    words = [parse_word(text, std.ident) for text in ENUMERATION_NO_PAIRS[n]]
    for st, pair in ((std, words), (dual_structure(n), [to_dual(w) for w in words])):
        x, y = map(st.nf_from_word, pair)
        rx, ry = slide_to_circuit(x)[0], slide_to_circuit(y)[0]
        # equal summits, so the NO comes from growing SC(x), not from the filter
        assert (rx.inf, rx.sup) == (ry.inf, ry.sup) and rx != ry
        assert are_conjugate(x, y) == (False, None)


@pytest.mark.parametrize("make", [artin_structure, dual_structure])
def test_sliding_circuits_and_are_conjugate_match_reference(make):
    # the memo and the early stop change no element, witness, arrow,
    # verdict or conjugator; the partners of x are a conjugate, x with one
    # letter changed, and x read backwards
    rng = random.Random(196)
    enumerated = {True: 0, False: 0}
    for n, count in ((3, 4), (4, 4), (5, 4), (6, 2)):
        st = make(n)
        lengths = (4, 10) if make is artin_structure else (2, 9 - n)
        if n == 6:  # short words: the reference scans all simples per element
            lengths = (3, 6) if make is artin_structure else (2, 4)
        for _ in range(count):
            w = random_word(rng, st, rng.randrange(*lengths))
            x = st.nf_from_word(w)
            sc, ref = sliding_circuits(x), sliding_circuits_reference(x)
            assert list(sc.elements.items()) == list(ref.elements.items())
            assert sc.arrows == ref.arrows
            # the scan finds each arrow below the initial factor of its source
            # or below the complement of the final factor: it is black or grey
            assert all(map(is_black_or_grey, ref.arrows))
            y = st.nf_conjugate(x, random_nf(rng, st, 4))
            letters = list(w.letters)
            i = rng.randrange(len(letters))
            letters[i] = (rng.randrange(len(st.atoms)), letters[i][1])
            z = st.nf_from_word(BraidWord(st.ident, 0, tuple(letters)))
            r = st.nf_from_word(BraidWord(st.ident, 0, w.letters[::-1]))
            for a, b in ((x, y), (y, x), (x, z), (x, r)):
                answer = are_conjugate(a, b)
                assert answer == are_conjugate_reference(a, b)
                ra, rb = slide_to_circuit(a)[0], slide_to_circuit(b)[0]
                if ra != rb and (ra.inf, ra.sup) == (rb.inf, rb.sup):
                    enumerated[answer[0]] += 1
    # both verdicts were reached by growing a sliding-circuits set
    assert min(enumerated.values()) > 0


@pytest.mark.parametrize("cls", [ArtinStructure, DualStructure])
def test_enumeration_never_lists_all_simples(cls):
    # a fresh instance, so that no other test has built its simples
    st = cls(7)
    word = lambda t: st.nf_from_word(parse_word(t, st.ident))
    x = word("1 -2 3 -4 5 -6 1 2 -3")
    assert len(sliding_circuits(x)) > 1
    assert are_conjugate(st.nf_conjugate(x, word("2 -5 6 1")), x)[0]
    # x1^2 y1 conjugated by a positive word: the positive-summit branch
    y = word("-3 -1 -4 1 1 5 4 1 3")
    res = recognize(y, RecognitionQuery(st.ident, 0, 2, 0, 1))
    assert res.verdict and res.witness.location == "conjugacy"
    assert verify_witness(y, res.witness)
    assert "all_simples" not in vars(st)


@pytest.mark.parametrize("make", [artin_structure, dual_structure])
def test_membership_memo_agrees_with_plain_walks(make):
    rng = random.Random(193)
    seen = set()
    for n in (3, 4):
        st = make(n)
        for _ in range(3):
            x = random_nf(rng, st, rng.randrange(2, 8))
            memo = {}
            for y in sliding_circuits(x).elements:
                for s in st.all_simples:
                    z = st.nf_conjugate_by_simple(y, s)
                    assert in_sliding_circuit(z, memo=memo) == in_sliding_circuit(z)
            for z, on in memo.items():
                assert on == in_sliding_circuit(z)
                # an element marked True has its whole circuit marked True
                assert not on or memo.get(cyclic_sliding(z)) is True
            seen.update(memo.values())
    assert seen == {True, False}


@pytest.mark.parametrize("make", [artin_structure, dual_structure])
def test_conjugate_to_first_against_the_whole_set(make):
    # among shuffled conjugates of x and of x with one letter replaced by an
    # inverse, the search answers None exactly when no target's circuit
    # element lies in the whole set SC(rx), and otherwise conjugates x onto
    # the target it names
    rng = random.Random(35)
    counts = dict.fromkeys(("yes at once", "yes after growth", "none by summit", "none"), 0)
    for n in (3, 4, 5):
        st = make(n)
        for _ in range(10):
            w = random_word(rng, st, rng.randrange(3, 8))
            x = st.nf_from_word(w)
            rx, wx = slide_to_circuit(x)
            whole = sliding_circuits_reference(rx).elements
            conjugates = rng.choice((0, 0, 1, 2))
            targets = [st.nf_conjugate(x, random_nf(rng, st, 4)) for _ in range(conjugates)]
            for _ in range(rng.randrange(1, 4)):
                letters = list(w.letters)
                i = rng.randrange(len(letters))
                letters[i] = (rng.randrange(len(st.atoms)), -letters[i][1])
                z = st.nf_from_word(BraidWord(st.ident, 0, tuple(letters)))
                targets.append(st.nf_conjugate(z, random_nf(rng, st, 3)))
            rng.shuffle(targets)
            circuits = [slide_to_circuit(t)[0] for t in targets]
            hit = conjugate_to_first(rx, wx, targets, DEFAULT_MAX_SC, DEFAULT_MAX_ORBIT)
            assert (hit is None) == all(r not in whole for r in circuits)
            if hit is None:
                summits = {(r.inf, r.sup) for r in circuits}
                counts["none" if (rx.inf, rx.sup) in summits else "none by summit"] += 1
                continue
            i, c = hit
            assert st.nf_conjugate(x, c) == targets[i]
            counts["yes at once" if circuits[i] == rx else "yes after growth"] += 1
    assert min(counts.values()) > 0, counts


def test_sc_cap_bounds_the_elements_enumerated(std4):
    st = std4
    x = st.nf_from_word(parse_word("2 -1 -1 2 -3 -1", st.ident))
    z = st.nf_from_word(parse_word("-1 -1 2 2 -1 -3", st.ident))
    elements = list(sliding_circuits(x).elements)
    assert len(elements) == 10
    # a YES met among the first two elements returns under a cap of two...
    y = elements[1]
    ok, c = are_conjugate(x, y, max_sc=2)
    assert ok and st.nf_conjugate(x, c) == y
    with pytest.raises(ResourceCapExceeded):
        are_conjugate_reference(x, y, max_sc=2)
    # ...while a NO enumerates the whole set, so it still meets the cap
    assert are_conjugate(x, z) == (False, None)
    with pytest.raises(ResourceCapExceeded):
        are_conjugate(x, z, max_sc=2)


def test_zero_length_errors_and_fixed_points(std3):
    st = std3
    x = st.nf(2)
    for fn in (initial_factor, final_factor, preferred_prefix):
        with pytest.raises(ValueError):
            fn(x)
    assert cycling(x) == decycling(x) == x
    assert cyclic_sliding(x) == x
    assert cycling_orbit(x) == [x]
    assert decycling_orbit(x) == [x]
    z, c = slide_to_circuit(x)
    assert z == x and c.is_identity()
    assert in_sliding_circuit(x)


def test_orbits_end_at_a_pure_garside_power(std3):
    # D^-2 2 1 1 cycles and decycles to D^-1, a fixed point of both
    st = std3
    x = st.nf_from_word(parse_word("D^-2 2 1 1", st.ident))
    for orbit, step in ((cycling_orbit, cycling), (decycling_orbit, decycling)):
        walk = orbit(x)
        assert len(walk) == 2
        assert not walk[-1].factors and step(walk[-1]) == walk[-1]


@pytest.mark.parametrize("make", [artin_structure, dual_structure])
def test_orbits_are_total_with_garside_powers(make):
    rng = random.Random(113)
    for n in (3, 4, 5):
        st = make(n)
        for _ in range(30):
            w = random_word(rng, st, rng.randrange(7))
            x = st.nf_from_word(BraidWord(st.ident, rng.randint(-3, 1), w.letters))
            for orbit, step in ((cycling_orbit, cycling), (decycling_orbit, decycling)):
                walk = orbit(x)
                assert walk[0] == x and len(set(walk)) == len(walk)
                assert step(walk[-1]) in walk


def test_resource_caps(std4, fixture16):
    rng = random.Random(107)
    x = random_nf(rng, std4, 8)
    with pytest.raises(ResourceCapExceeded) as err:
        sliding_circuits(x, max_sc=1)
    assert err.value.cap == 1
    y = random_nf(rng, std4, 10)
    # every walk names itself when it runs past the cap
    for fn, walked, what in (
        (slide_to_circuit, y, "sliding trajectory"),
        (in_sliding_circuit, y, "sliding trajectory"),
        (cycling_orbit, fixture16, "cycling orbit"),
        (decycling_orbit, fixture16, "decycling orbit"),
    ):
        with pytest.raises(ResourceCapExceeded) as err:
            fn(walked, max_orbit=1)
        assert (err.value.what, err.value.cap) == (what, 1)


@pytest.mark.parametrize("make", [artin_structure, dual_structure])
def test_in_sliding_circuit_agrees_with_slide_to_circuit(make):
    rng = random.Random(181)
    seen = set()
    for n in (3, 4, 5):
        st = make(n)
        for _ in range(40):
            x = random_nf(rng, st, rng.randrange(1, 12))
            xt, _ = slide_to_circuit(x)
            on_circuit = in_sliding_circuit(x)
            assert on_circuit == (xt == x)
            assert in_sliding_circuit(xt)
            seen.add(on_circuit)
    assert seen == {True, False}


def test_structure_mismatch_rejected(std3, std4):
    with pytest.raises(ValueError):
        are_conjugate(std3.nf(1), std4.nf(1))
