"""Word grammar: parsing, serialization, Garside-power folding, lengths."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as hs

from braidqp import (
    BraidWord,
    StructureId,
    StructureKind,
    WordSyntaxError,
    algebraic_length,
    artin_structure,
    dual_structure,
    parse_word,
    to_dual,
    to_standard,
    word_to_text,
)
from conftest import word_inverse, word_product

STD3 = StructureId(3, StructureKind.STANDARD)
STD4 = StructureId(4, StructureKind.STANDARD)
DUAL4 = StructureId(4, StructureKind.DUAL)
DUAL12 = StructureId(12, StructureKind.DUAL)


def word_strategy(ident: StructureId):
    letter = hs.tuples(
        hs.integers(0, ident.num_atoms - 1), hs.sampled_from((1, -1))
    )
    return hs.builds(
        BraidWord,
        hs.just(ident),
        hs.integers(-3, 3),
        hs.lists(letter, max_size=12).map(tuple),
    )


@given(word_strategy(STD4))
def test_roundtrip_standard(w):
    assert parse_word(word_to_text(w), STD4) == w


@given(hs.sampled_from((DUAL4, DUAL12)).flatmap(word_strategy))
def test_roundtrip_dual(w):
    assert parse_word(word_to_text(w), w.structure) == w


def test_band_names_from_ten_strands():
    # a two-digit strand is set off by an underscore: a123 would be ambiguous
    bands = ((9, 1), (10, 1), (12, 3))
    names = [DUAL12.atom_name(DUAL12.atom_index_of_band(t, s)) for t, s in bands]
    assert names == ["a91", "a10_1", "a12_3"]
    assert parse_word("a10_1 a12_3^-1", DUAL12).letters == (
        (DUAL12.atom_index_of_band(10, 1), 1),
        (DUAL12.atom_index_of_band(12, 3), -1),
    )
    # one-digit strands have one spelling only
    for name in ("a3_1", "a03_1", "a10_01"):
        with pytest.raises(WordSyntaxError):
            parse_word(name, DUAL12)


@given(word_strategy(STD4), word_strategy(STD4))
def test_length_additive_standard(u, v):
    assert algebraic_length(word_product(u, v)) == algebraic_length(u) + algebraic_length(v)


@given(word_strategy(DUAL4), word_strategy(DUAL4))
def test_length_additive_dual(u, v):
    assert algebraic_length(word_product(u, v)) == algebraic_length(u) + algebraic_length(v)


@given(word_strategy(DUAL4))
def test_inverse_negates_length(w):
    assert algebraic_length(word_inverse(w)) == -algebraic_length(w)


def test_inverse_is_group_inverse():
    st = artin_structure(4)
    rng = random.Random(7)
    for _ in range(50):
        letters = tuple(
            (rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(8))
        )
        w = BraidWord(STD4, rng.randrange(-2, 3), letters)
        assert st.nf_from_word(word_product(w, word_inverse(w))).is_identity()


def test_length_examples():
    assert algebraic_length(parse_word("1 2 -1", STD3)) == 1
    assert algebraic_length(parse_word("D", STD3)) == 3
    # six positive letters after one inverse Garside power of norm 3
    assert algebraic_length(parse_word("D^-1 b a 1 2 a b", DUAL4)) == 3


def test_garside_power_folding():
    st = artin_structure(4)
    for text in ("1 D 2", "D^2 1 -3 d^-1", "2 D^-1 1 D^2 3"):
        w = parse_word(text, STD4)
        # folding must preserve the element, with all power up front
        by_parts = st.nf(0)
        for tok in text.split():
            by_parts = st.nf_multiply(by_parts, st.nf_from_word(parse_word(tok, STD4)))
        assert st.nf_from_word(w) == by_parts


def test_garside_folding_dual():
    st = dual_structure(4)
    w = parse_word("a31 d a42 d^-2 1", DUAL4)
    by_parts = st.nf(0)
    for tok in "a31 d a42 d^-2 1".split():
        by_parts = st.nf_multiply(by_parts, st.nf_from_word(parse_word(tok, DUAL4)))
    assert st.nf_from_word(w) == by_parts


def test_half_twist_conjugation_of_atoms():
    # D^-1 sigma_1 D = sigma_{n-1} in the standard structure
    st = artin_structure(4)
    assert st.nf_from_word(parse_word("D^-1 1 D", STD4)) == st.nf_from_word(
        parse_word("3", STD4)
    )
    # d^-1 sigma_3 d = the band a_{41} in the dual structure
    dt = dual_structure(4)
    assert dt.nf_from_word(parse_word("d^-1 3 d", DUAL4)) == dt.nf_from_word(
        parse_word("a41", DUAL4)
    )


def test_named_tokens():
    assert parse_word("s1 s2", STD3) == parse_word("1 2", STD3)
    assert parse_word("a", DUAL4) == parse_word("a31", DUAL4)
    assert parse_word("b", DUAL4) == parse_word("a42", DUAL4)
    assert parse_word("s0", DUAL4) == parse_word("a41", DUAL4)
    assert parse_word("s2^3", STD3) == parse_word("2 2 2", STD3)
    assert parse_word("s2^-2", STD3) == parse_word("-2 -2", STD3)


def test_numeric_tokens_are_artin_generators_in_both_structures():
    # token "2" is sigma_2 = band a_{32}, not the second lexicographic band
    w = parse_word("2", DUAL4)
    (index, sign) = w.letters[0]
    assert sign == 1
    assert DUAL4.atom_pairs()[index] == (3, 2)


@pytest.mark.parametrize(
    "text,pos",
    [("0", 1), ("1 0", 2), ("5", 1), ("1 xyz", 2), ("a99", 1), ("1 2^", 2)],
)
def test_syntax_errors(text, pos):
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text, STD4)
    assert err.value.position == pos


def test_band_names_rejected_in_standard():
    with pytest.raises(WordSyntaxError):
        parse_word("a31", STD4)


def test_structure_validation():
    with pytest.raises(ValueError):
        StructureId(1, StructureKind.STANDARD)
    with pytest.raises(ValueError):
        BraidWord(STD3, 0, ((5, 1),))
    with pytest.raises(ValueError):
        BraidWord(STD3, 0, ((0, 2),))
    st = artin_structure(3)
    with pytest.raises(ValueError):
        st.nf_from_word(parse_word("1", STD4))


@pytest.mark.parametrize("n", range(2, 13))
def test_band_index_closed_form(n):
    ident = StructureId(n, StructureKind.DUAL)
    pairs = ident.atom_pairs()
    assert ident.atom_pairs() is pairs  # built once per strand count
    assert len(pairs) == ident.num_atoms
    for index, (t, s) in enumerate(pairs):
        assert ident.atom_index_of_band(t, s) == index
    for i in range(1, n):
        assert ident.atom_index_of_artin(i) == pairs.index((i + 1, i))


def test_translation_sends_sigma_i_to_a_i_plus_1_i():
    std, dual = StructureId(5, StructureKind.STANDARD), StructureId(5, StructureKind.DUAL)
    for i in range(1, 5):
        for sign in (1, -1):
            w = to_dual(BraidWord(std, 0, ((i - 1, sign),)))
            assert w == BraidWord(dual, 0, ((dual.atom_index_of_band(i + 1, i), sign),))
    # a_{41} = R sigma_1 R^{-1} with R = sigma_3 sigma_2
    a41 = BraidWord(dual, 0, ((dual.atom_index_of_band(4, 1), 1),))
    assert to_standard(a41) == parse_word("3 2 1 -2 -3", std)
    # Delta^2 = delta^n in both directions
    assert to_dual(BraidWord(std, 2)) == BraidWord(dual, 5)
    assert to_standard(BraidWord(dual, -5)) == BraidWord(std, -2)
    with pytest.raises(ValueError):
        to_standard(BraidWord(std, 1))
    with pytest.raises(ValueError):
        to_dual(BraidWord(dual, 1))


@pytest.mark.parametrize("n", range(2, 8))
def test_translation_round_trips(n):
    # both directions, on words with Garside powers of either sign
    std, dual = artin_structure(n), dual_structure(n)
    rng = random.Random(70 + n)
    for _ in range(25):
        for st in (std, dual):
            letters = tuple(
                (rng.randrange(len(st.atoms)), rng.choice((1, -1)))
                for _ in range(rng.randrange(12))
            )
            w = BraidWord(st.ident, rng.randint(-2 * n, 2 * n), letters)
            back = to_standard(to_dual(w)) if st is std else to_dual(to_standard(w))
            assert st.nf_from_word(back) == st.nf_from_word(w)
