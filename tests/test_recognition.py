"""Membership in one or two conjugacy classes of atom powers."""

from __future__ import annotations

import random

import pytest

from braidqp import (
    RecognitionQuery,
    StructureKind,
    conjugate_atoms,
    match_power_form,
    match_product_form,
    parse_word,
    rebuild_witness,
    recognize,
    slide_to_circuit,
    structure_for,
    summit_length_filter,
    verify_witness,
)
from conftest import random_nf, random_word


def _conjugated_power(st, rng, atom_idx, k, conj_len=3):
    c = random_nf(rng, st, conj_len)
    x = st.nf(0)
    for _ in range(k):
        x = st.nf_right_multiply(x, st.atoms[atom_idx])
    return st.nf_conjugate(x, c)


def test_query_validation(std3, dual3):
    ident = std3.ident
    with pytest.raises(ValueError):
        RecognitionQuery(ident, 0, 0)
    with pytest.raises(ValueError):
        RecognitionQuery(ident, 0, 1, y=1)  # y without l
    with pytest.raises(ValueError):
        RecognitionQuery(ident, 0, 1, y=1, l=0)
    with pytest.raises(ValueError):
        RecognitionQuery(ident, 5, 1)
    with pytest.raises(ValueError):
        recognize(std3.nf(0), RecognitionQuery(dual3.ident, 0, 1))
    dual_ident = structure_for(ident).ident  # same structure, sanity
    assert dual_ident == ident


def test_conjugate_atoms_is_everything(std4, dual4):
    assert conjugate_atoms(0, std4.ident) == frozenset(range(3))
    assert conjugate_atoms(3, dual4.ident) == frozenset(range(6))
    with pytest.raises(ValueError):
        conjugate_atoms(9, std4.ident)


@pytest.mark.parametrize("which", ["std3", "std4", "dual3", "dual4"])
def test_single_class_membership(which, request):
    st = request.getfixturevalue(which)
    rng = random.Random(13)
    for _ in range(30):
        atom = rng.randrange(len(st.atoms))
        k = rng.randrange(1, 4)
        x = _conjugated_power(st, rng, atom, k)
        res = recognize(x, RecognitionQuery(st.ident, atom, k))
        assert res.verdict
        assert res.witness is not None
        assert verify_witness(x, res.witness)
        assert rebuild_witness(res.witness) == res.witness.element
        # same class under any other atom, since all atoms are conjugate
        other = rng.randrange(len(st.atoms))
        assert recognize(x, RecognitionQuery(st.ident, other, k)).verdict


@pytest.mark.parametrize("which", ["std3", "std4", "dual4"])
def test_single_class_rejections(which, request):
    st = request.getfixturevalue(which)
    w = lambda t: st.nf_from_word(parse_word(t, st.ident))
    # wrong exponent sum
    assert not recognize(w("1 1 1"), RecognitionQuery(st.ident, 0, 2)).verdict
    # right exponent sum but not a conjugate of a squared atom
    assert not recognize(w("1 2"), RecognitionQuery(st.ident, 0, 2)).verdict
    # inverse powers are not in the positive class
    assert not recognize(w("-1"), RecognitionQuery(st.ident, 0, 1)).verdict
    # inf >= 1 rules out a conjugate of an atom power
    assert not recognize(w("D"), RecognitionQuery(st.ident, 0, 3)).verdict
    top = st.ident.strands - 1  # "D^2 -3" on four strands
    assert not recognize(w(f"D^2 -{top}"), RecognitionQuery(st.ident, 0, 4)).verdict


@pytest.mark.parametrize("which", ["std3", "std4", "dual3", "dual4"])
def test_two_class_membership(which, request):
    st = request.getfixturevalue(which)
    rng = random.Random(29)
    for _ in range(15):
        xa = rng.randrange(len(st.atoms))
        ya = rng.randrange(len(st.atoms))
        k = rng.randrange(1, 3)
        l = rng.randrange(1, 3)
        prod = st.nf_multiply(
            _conjugated_power(st, rng, xa, k), _conjugated_power(st, rng, ya, l)
        )
        q = RecognitionQuery(st.ident, xa, k, ya, l)
        res = recognize(prod, q)
        assert res.verdict
        assert res.witness is not None
        assert verify_witness(prod, res.witness)
        assert res.witness.location in ("input", "conjugacy", "orbit", "sc")


@pytest.mark.parametrize("which", ["std3", "dual4"])
def test_two_class_rejections(which, request):
    st = request.getfixturevalue(which)
    rng = random.Random(31)
    for _ in range(20):
        w = random_word(rng, st, rng.randrange(7))
        x = st.nf_from_word(w)
        e = st.nf_algebraic_length(x)
        k = rng.randrange(1, 4)
        l = rng.randrange(1, 4)
        if k + l == e:
            continue
        assert not recognize(x, RecognitionQuery(st.ident, 0, k, 0, l)).verdict


def test_witness_fields_describe_the_form(dual4):
    st = dual4
    rng = random.Random(41)
    for _ in range(10):
        prod = st.nf_multiply(
            _conjugated_power(st, rng, rng.randrange(6), 1),
            _conjugated_power(st, rng, rng.randrange(6), 2),
        )
        res = recognize(prod, RecognitionQuery(st.ident, 0, 1, 0, 2))
        assert res.verdict and res.witness is not None
        w = res.witness
        assert w.x1 in st.atom_index
        assert len(w.a_factors) == w.n and len(w.b_factors) == w.n
        if w.y1 is not None:
            assert w.y1 in st.atom_index
        # the ladder telescopes: A_i g^{i-1} B_i = g^i
        for i, (a, b) in enumerate(zip(w.a_factors, w.b_factors), start=1):
            t = st.nf_mult_delta(st.nf_of_simple(a), i - 1)
            assert st.nf_right_multiply(t, b) == st.nf(i)


def test_summit_length_filter(dual4, std4):
    for st in (std4, dual4):
        q = RecognitionQuery(st.ident, 0, 1, 0, 1)
        assert summit_length_filter(st.nf(1, (st.atoms[0],)), q) is None  # inf >= 0
        bad = st.nf(-1, (st.atoms[0],) * 1)
        assert summit_length_filter(bad, q) is False


def test_matchers_reject_perturbations(dual4):
    st = dual4
    x = st.nf_from_word(parse_word("D^-1 b a 1 3 2", st.ident))
    q = RecognitionQuery(st.ident, st.ident.atom_index_of_artin(1), 1, 0, 1)
    w = match_product_form(x, q)
    assert w is not None and w.n == 1
    # breaking the trailing atom run (a norm-2 factor there) kills the match
    damaged = st.nf(x.p, x.factors[:3] + (x.factors[2],))
    assert st.norm(x.factors[2]) == 2
    assert match_product_form(damaged, q) is None
    # a shape of the wrong length never matches
    short = st.nf(x.p, x.factors[:3])
    assert match_product_form(short, q) is None
    assert match_power_form(st.nf(0, (st.atoms[0], st.atoms[1])), RecognitionQuery(
        st.ident, 0, 2
    )) is None


def test_recognize_dispatch_and_structure_guards(std3, dual3):
    q_std = RecognitionQuery(std3.ident, 0, 1)
    q_dual = RecognitionQuery(dual3.ident, 0, 1)
    with pytest.raises(ValueError):
        recognize(dual3.nf(0), q_std)
    with pytest.raises(ValueError):
        recognize(std3.nf(0), q_dual)
    x = std3.nf_from_word(parse_word("1", std3.ident))
    assert recognize(x, q_std).verdict
    y = dual3.nf_from_word(parse_word("1", dual3.ident))
    assert recognize(y, q_dual).verdict
    # a normal form of the other structure is refused, not answered
    with pytest.raises(ValueError):
        recognize(x, q_dual)
    with pytest.raises(ValueError):
        recognize(y, q_std)


def test_standard_small_product_example(std3):
    # a conjugate of sigma1 * sigma2 is a product of two atom conjugates
    st = std3
    x = st.nf_from_word(parse_word("-2 1 2 2", st.ident))
    res = recognize(x, RecognitionQuery(st.ident, 0, 1, 0, 1))
    assert res.verdict
    assert verify_witness(x, res.witness)


def test_dual_matcher_location_reporting(dual4):
    # an element already in form needs no conjugation at all
    st = dual4
    x = st.nf_from_word(parse_word("D^-1 b a 1 3 2", st.ident))
    q = RecognitionQuery(st.ident, st.ident.atom_index_of_artin(1), 1, 0, 1)
    res = recognize(x, q)
    assert res.verdict and res.witness is not None
    assert res.witness.location in ("input", "orbit")
    xt, _ = slide_to_circuit(x)
    assert xt == x  # rigid: the input is its own circuit representative
