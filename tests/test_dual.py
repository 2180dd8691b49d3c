"""Dual (band-generator) structure properties."""

from __future__ import annotations

import itertools
import random

import pytest

from braidqp import dual_structure, initial_factor, mult
from braidqp.dual import cycles_of
from conftest import (
    atom_suffix,
    is_left_weighted,
    is_noncrossing_ascending,
    is_simple_payload,
    is_suffix,
    nf_validate,
    random_nf,
    starting_set,
)


def catalan(n):
    out = 1
    for i in range(n):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


def test_simple_counts_are_catalan():
    for n in (3, 4, 5):
        assert len(dual_structure(n).all_simples) == catalan(n)


def test_delta_is_descending_sigma_word(dual4):
    from braidqp import parse_word

    assert dual4.nf_from_word(parse_word("3 2 1", dual4.ident)) == dual4.nf(1)


def test_noncrossing_ascending_predicate(dual4):
    # crossing blocks: (1 3)(2 4); descending cycle: the 3-cycle 0 -> 2 -> 1
    assert not is_noncrossing_ascending((2, 3, 0, 1))
    assert not is_noncrossing_ascending((2, 0, 1, 3))
    assert is_noncrossing_ascending((1, 0, 3, 2))
    assert is_noncrossing_ascending((1, 2, 3, 0))  # delta itself


def test_norm_counts_merges(dual5):
    for s in dual5.all_simples:
        assert dual5.norm(s) == 5 - len(cycles_of(s))


@pytest.mark.parametrize("n", [4, 5])
def test_symmetry(n):
    # left and right divisibility coincide on simples
    st = dual_structure(n)
    for a in st.all_simples:
        for b in st.all_simples:
            assert st.is_prefix(a, b) == is_suffix(st, a, b)


@pytest.mark.parametrize("n", [4, 5])
def test_square_free(n):
    # no atom squared is simple
    st = dual_structure(n)
    for a in st.atoms:
        x = st.nf_right_multiply(st.nf_of_simple(a), a)
        assert x.p == 0 and len(x.factors) == 2


def test_homogeneous(dual4):
    # letter length is additive, so algebraic length is conjugation invariant
    rng = random.Random(3)
    for _ in range(200):
        x = random_nf(rng, dual4, rng.randrange(8))
        c = random_nf(rng, dual4, 4)
        assert dual4.nf_algebraic_length(dual4.nf_conjugate(x, c)) == (
            dual4.nf_algebraic_length(x)
        )


def test_atom_prefix_is_same_block(dual4):
    for t, s in dual4.ident.atom_pairs():
        for w in dual4.all_simples:
            in_same_cycle = any(
                t - 1 in c and s - 1 in c for c in cycles_of(w)
            )
            i = dual4.ident.atom_index_of_band(t, s)
            assert dual4.atom_prefix(i, w) == in_same_cycle


def test_atom_commutes_past_simple(dual4):
    # x in S(A) => xA = A x1 for some atom x1, and symmetrically
    st = dual4
    for i, x in enumerate(st.atoms):
        for A in st.all_simples:
            if not st.atom_prefix(i, A):
                continue
            lhs = st.nf_left_multiply(x, st.nf_of_simple(A))
            assert any(
                lhs == st.nf_right_multiply(st.nf_of_simple(A), x1)
                for x1 in st.atoms
            )
    for i, x in enumerate(st.atoms):
        for A in st.all_simples:
            if not atom_suffix(st, i, A):
                continue
            rhs = st.nf_right_multiply(st.nf_of_simple(A), x)
            assert any(
                rhs == st.nf_left_multiply(x1, st.nf_of_simple(A))
                for x1 in st.atoms
            )


@pytest.mark.parametrize("n", [4, 5])
def test_simple_is_join_of_starting_atoms(n):
    st = dual_structure(n)
    for A in st.all_simples:
        if A == st.identity:
            continue
        out = st.identity
        for i in starting_set(st, A):
            out = st.join(out, st.atoms[i])
        assert out == A


def test_join_quotient_exchange(dual4):
    # for atoms x, y whose product is not simple: with D = x^{-1}(x v y),
    # y v D = x v y
    st = dual4
    for x, y in itertools.product(st.atoms, repeat=2):
        xy = mult(x, y)
        if is_simple_payload(st, xy) and st.norm(xy) == 2:
            continue  # xy divides the Garside element: out of scope
        j = st.join(x, y)
        d = st.left_quotient(x, j)
        assert st.join(y, d) == j


def _garside_head(st, x):
    """Garside-element meet of a positive element, from its normal form."""
    assert x.p >= 0
    if x.p >= 1:
        return st.delta
    return x.factors[0] if x.factors else st.identity


def test_initial_factor_absorbs_repeated_simple(dual4):
    # the Garside head of A^2 P equals that of A P for a simple A and
    # positive P; when both products have inf 0 this is the initial factor
    st = dual4
    rng = random.Random(19)
    checked = 0
    for _ in range(1500):
        A = rng.choice(st.all_simples)
        if A == st.identity:
            continue
        p = random_nf(rng, st, rng.randrange(7), signed=False)
        a_nf = st.nf_of_simple(A)
        ap = st.nf_multiply(a_nf, p)
        aap = st.nf_multiply(a_nf, ap)
        assert _garside_head(st, aap) == _garside_head(st, ap)
        checked += 1
        if ap.p == 0 == aap.p and ap.factors and aap.factors:
            assert initial_factor(aap) == initial_factor(ap)
            assert starting_set(st, initial_factor(aap)) == starting_set(st, 
                initial_factor(ap)
            )
    assert checked >= 1000


def test_blocking_form_pins_initial_factor(dual4):
    # X = A . x^k . B left weighted with AB = delta, Y positive with inf 0:
    # either delta divides XY, or iota(XY) = A
    st = dual4
    rng = random.Random(37)
    checked = 0
    while checked < 1000:
        A = rng.choice(st.all_simples)
        if A in (st.identity, st.delta):
            continue
        B = st.complement(A)
        i = rng.randrange(len(st.atoms))
        x = st.atoms[i]
        k = rng.randrange(1, 4)
        if not (
            is_left_weighted(st, A, x)
            and is_left_weighted(st, x, x)
            and is_left_weighted(st, x, B)
        ):
            continue
        X = st.nf(0, (A,) + (x,) * k + (B,))
        nf_validate(st, X)
        y = random_nf(rng, st, rng.randrange(8), signed=False)
        y = st.nf(0, y.factors)  # force inf 0
        xy = st.nf_multiply(X, y)
        assert xy.p >= 1 or initial_factor(xy) == A
        checked += 1
