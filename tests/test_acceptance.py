"""Acceptance gate: one test per top-level deliverable criterion."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from braidqp import (
    BraidWord,
    RecognitionQuery,
    StructureId,
    StructureKind,
    artin_structure,
    cycling,
    cycling_orbit,
    decycling,
    dual_structure,
    match_product_form,
    parse_word,
    qp3,
    qp_half_twist_power,
    recognize,
    slide_to_circuit,
    sliding_circuits,
    summit_length_filter,
    to_pa_form,
    verify_witness,
)
from conftest import band_atom, nf_validate, random_nf, random_word

# the reference Br_4 braid: the fourth power of the full twist times the
# inverse of a fixed 23-letter word
_WORD = "3 3 -1 2 1 3 3 -2 1 2 2 2 3 3 2 2 2 2 3 3 1 2 1"


def _intro_element(st):
    w = st.nf_from_word(parse_word(_WORD, st.ident))
    delta4 = st.nf(4 if st.ident.kind is StructureKind.STANDARD else 8)
    return st.nf_multiply(delta4, st.nf_inverse(w))


def test_criterion_1_intro_example_invariants():
    # known-failing: the independently certified summit values are
    # (-5, 9) for the standard structure and (-4, 9) for the dual one
    start = time.monotonic()
    st = artin_structure(4)
    xt, _ = slide_to_circuit(_intro_element(st))
    std_invariants = (xt.inf, xt.canonical_length)
    dt = dual_structure(4)
    yt, _ = slide_to_circuit(_intro_element(dt))
    dual_invariants = (yt.inf, yt.canonical_length)
    assert time.monotonic() - start < 10.0
    assert std_invariants == (-6, 12)
    assert dual_invariants == (-6, 14)


def test_criterion_2_intro_example_verdict():
    for make in (artin_structure, dual_structure):
        st = make(4)
        x = _intro_element(st)
        q = RecognitionQuery(st.ident, 0, 1, 0, 4)
        xt, _ = slide_to_circuit(x)
        # the summit-length filter alone settles the question
        assert summit_length_filter(xt, q) is False
        assert recognize(x, q).verdict is False


def test_criterion_3_reference_fixture():
    st = dual_structure(4)
    x = st.nf_from_word(parse_word("D^-1 b a 1 2 a b", st.ident))
    expected = (
        band_atom(st, 4, 2),
        band_atom(st, 3, 1),
        band_atom(st, 2, 1),
        band_atom(st, 3, 2),
        band_atom(st, 3, 1),
        band_atom(st, 4, 2),
    )
    assert x.p == -1 and x.factors == expected
    nf_validate(st, x)
    from braidqp import cyclic_sliding

    assert cyclic_sliding(x) == x  # rigid
    z = x
    for _ in range(6):
        z = cycling(z)
    assert z == st.nf_tau(x, 1)
    orbit = cycling_orbit(x)
    assert len(orbit) == 24
    sc = sliding_circuits(x)
    assert len(sc) == 24 and set(orbit) == set(sc.elements)


def test_criterion_4_reference_witness():
    st = dual_structure(4)
    x = st.nf_from_word(parse_word("D^-1 b a 1 3 2", st.ident))
    s1 = st.ident.atom_index_of_artin(1)
    res = recognize(x, RecognitionQuery(st.ident, s1, 1, s1, 1))
    assert res.verdict and res.witness is not None
    w = res.witness
    assert w.n == 1
    assert w.a_factors == (band_atom(st, 4, 2),)  # A_1 = a42
    sigma1_sigma3 = st.nf_multiply(
        st.nf_of_simple(band_atom(st, 2, 1)), st.nf_of_simple(band_atom(st, 4, 3))
    ).factors[0]
    assert w.b_factors == (sigma1_sigma3,)  # B_1 = the commuting band pair
    assert verify_witness(x, w)


def test_criterion_5_half_twist_powers_closed_form():
    start = time.monotonic()
    for q in range(-2, 9):
        for n in range(0, 21):
            word_text = " ".join([f"D^{q}"] + ["-1"] * n)
            pa = to_pa_form(parse_word(word_text, StructureId(3, StructureKind.STANDARD)))
            assert qp3(pa) == qp_half_twist_power(q, n), (q, n)
    assert time.monotonic() - start < 5.0


def test_criterion_6_cross_engine_oracle():
    start = time.monotonic()
    st = artin_structure(3)
    dt = dual_structure(3)
    s_dual = [dt.ident.atom_index_of_artin(1), dt.ident.atom_index_of_artin(2)]
    q1_std = RecognitionQuery(st.ident, 0, 1)
    q2_std = RecognitionQuery(st.ident, 0, 1, 0, 1)
    q1_dual = RecognitionQuery(dt.ident, s_dual[0], 1)
    q2_dual = RecognitionQuery(dt.ident, s_dual[0], 1, s_dual[0], 1)
    cache: dict[tuple, tuple[bool, bool, bool]] = {}
    checked = 0
    for length in range(1, 9):
        for combo in itertools.product(((0, 1), (0, -1), (1, 1), (1, -1)), repeat=length):
            e = sum(s for _, s in combo)
            if e not in (1, 2):
                continue
            x = st.nf_from_word(BraidWord(st.ident, 0, combo))
            key = (x.p, x.factors, e)
            if key not in cache:
                qp = qp3(to_pa_form(x))
                dual_letters = tuple((s_dual[i], s) for i, s in combo)
                y = dt.nf_from_word(BraidWord(dt.ident, 0, dual_letters))
                if e == 1:
                    r_std = recognize(x, q1_std).verdict
                    r_dual = recognize(y, q1_dual).verdict
                else:
                    r_std = recognize(x, q2_std).verdict
                    r_dual = recognize(y, q2_dual).verdict
                cache[key] = (qp, r_std, r_dual)
            qp, r_std, r_dual = cache[key]
            assert qp == r_std == r_dual, (combo, qp, r_std, r_dual)
            checked += 1
    assert checked > 15000
    assert time.monotonic() - start < 300.0


@pytest.mark.parametrize(
    "make", [artin_structure, dual_structure], ids=["standard", "dual"]
)
def test_criterion_7_round_trips(make):
    rng = random.Random(2024)
    for strands in (3, 4):
        st = make(strands)
        for _ in range(125):
            k = rng.randrange(1, 4)
            l = rng.randrange(1, 6 - k)
            xa = rng.randrange(len(st.atoms))
            ya = rng.randrange(len(st.atoms))
            parts = []
            for atom, power in ((xa, k), (ya, l)):
                c = random_nf(rng, st, rng.randrange(4))
                z = st.nf(0)
                for _ in range(power):
                    z = st.nf_right_multiply(z, st.atoms[atom])
                parts.append(st.nf_conjugate(z, c))
            x = st.nf_multiply(parts[0], parts[1])
            res = recognize(x, RecognitionQuery(st.ident, xa, k, ya, l))
            assert res.verdict, (strands, xa, k, ya, l)
            assert verify_witness(x, res.witness)
        for _ in range(125):
            w = random_word(rng, st, rng.randrange(7))
            x = st.nf_from_word(w)
            e = st.nf_algebraic_length(x)
            k = rng.randrange(1, 4)
            l = rng.randrange(1, 6 - k)
            if k + l == e:
                l = l + 1 if k + l < 5 else l - 1 if l > 1 else l
            if k + l == e:
                continue
            res = recognize(x, RecognitionQuery(st.ident, 0, k, 0, l))
            assert not res.verdict


def test_criterion_8_property_suites(request):
    # exhaustive lattice/divisor comparisons, complements, swap identities,
    # the dual-structure lemmas and the one-pass update agreement, at the
    # scales exercised by the dedicated module suites
    from test_artin import (
        test_prepend_atom_swap_identity,
        test_starting_set_complements_left_set,
    )
    from test_dual import (
        test_blocking_form_pins_initial_factor,
        test_initial_factor_absorbs_repeated_simple,
        test_join_quotient_exchange,
        test_simple_is_join_of_starting_atoms,
    )
    from test_garside_core import (
        test_atom_prefix_predicates_match_oracle,
        test_complement_bijective_and_squares_to_twist,
        test_delta_meet_of_products,
        test_inverse_and_multiply,
        test_lattice_laws,
        test_meet_join_universal_property,
        test_one_pass_updates_match_recomputation,
        test_prefix_and_suffix_match_oracle,
        test_right_weighted_head_detects_delta,
    )

    std4 = request.getfixturevalue("std4")
    dual4 = request.getfixturevalue("dual4")
    for which in ("std4", "dual5"):
        test_prefix_and_suffix_match_oracle(which, request)
        test_atom_prefix_predicates_match_oracle(which, request)
        test_meet_join_universal_property(which, request)
        test_lattice_laws(which, request)
        test_complement_bijective_and_squares_to_twist(which, request)
    test_starting_set_complements_left_set(std4)
    test_prepend_atom_swap_identity(std4)
    test_simple_is_join_of_starting_atoms(4)
    test_simple_is_join_of_starting_atoms(5)
    test_join_quotient_exchange(dual4)
    test_initial_factor_absorbs_repeated_simple(dual4)
    test_blocking_form_pins_initial_factor(dual4)
    test_inverse_and_multiply("std4", request)  # includes length subadditivity
    test_delta_meet_of_products(std4)
    test_right_weighted_head_detects_delta(std4)
    for which in ("std4", "dual4"):
        test_one_pass_updates_match_recomputation(which, request)


def test_criterion_9_orbit_universality():
    st = dual_structure(4)
    rng = random.Random(4040)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 5000
        k = rng.randrange(1, 3)
        l = rng.randrange(1, 3)
        xa = rng.randrange(6)
        ya = rng.randrange(6)
        parts = []
        for atom, power in ((xa, k), (ya, l)):
            c = random_nf(rng, st, rng.randrange(1, 4))
            z = st.nf(0)
            for _ in range(power):
                z = st.nf_right_multiply(z, st.atoms[atom])
            parts.append(st.nf_conjugate(z, c))
        x = st.nf_multiply(parts[0], parts[1])
        xt, _ = slide_to_circuit(x)
        if xt.inf >= 0:
            continue  # conjugate to the plain product: the other branch
        q = RecognitionQuery(st.ident, xa, k, ya, l)
        assert recognize(x, q).verdict
        sc = sliding_circuits(x)
        for step in (cycling, decycling):
            remaining = set(sc.elements)
            while remaining:
                start = next(iter(remaining))
                orbit = [start]
                z = step(start) if start.factors else start
                while z != start:
                    orbit.append(z)
                    z = step(z) if z.factors else z
                assert any(match_product_form(z, q) is not None for z in orbit), (
                    step.__name__,
                    xa,
                    k,
                    ya,
                    l,
                )
                remaining.difference_update(orbit)
        done += 1
