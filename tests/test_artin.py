"""Standard (permutation-braid) structure properties."""

from __future__ import annotations

import itertools

from braidqp import BraidWord, artin_structure, mult
from conftest import (
    finishing_set,
    left_complementary_set,
    right_complementary_set,
    starting_set,
)


def _positive_nf(st, letters):
    return st.nf_from_word(BraidWord(st.ident, 0, tuple((i, 1) for i in letters)))


def test_simple_counts():
    assert len(artin_structure(3).all_simples) == 6
    assert len(artin_structure(4).all_simples) == 24


def test_delta_is_sigma1_sigma2_sigma1_in_br3(std3):
    assert _positive_nf(std3, (0, 1, 0)) == std3.nf(1)


def test_atom_prefix_is_descent(std4):
    # sigma_i divides a permutation braid iff positions i, i+1 are inverted
    for s in std4.all_simples:
        for i in range(3):
            assert std4.atom_prefix(i, s) == (s[i] > s[i + 1])


def test_norm_is_inversion_count(std4):
    for s in std4.all_simples:
        assert std4.norm(s) == sum(
            1 for i, j in itertools.combinations(range(4), 2) if s[i] > s[j]
        )


def test_starting_set_complements_left_set(std4):
    # on every simple W: the starting atoms are exactly the atoms that
    # cannot be prepended, and dually for the finishing atoms
    atoms = frozenset(range(3))
    for w in std4.all_simples:
        assert starting_set(std4, w) == atoms - left_complementary_set(std4, w)
        assert finishing_set(std4, w) == atoms - right_complementary_set(std4, w)


def test_complementary_sets_of_a_factorisation_of_delta(std4):
    # when AB = Delta: S(B) = R(A) and F(A) = L(B)
    for a in std4.all_simples:
        b = std4.complement(a)
        assert starting_set(std4, b) == right_complementary_set(std4, a)
        assert finishing_set(std4, a) == left_complementary_set(std4, b)


def _simple_iff_square_free_words(st, max_len):
    """All positive words up to max_len with a braid-rewriting square search."""
    n_atoms = len(st.atoms)
    for length in range(max_len + 1):
        for word in itertools.product(range(n_atoms), repeat=length):
            yield word


def _rewrite_closure(word, n_atoms):
    """All positive words reachable by braid relations (no cancellations)."""
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if abs(a - b) > 1:  # distant generators commute
                v = w[:i] + (b, a) + w[i + 2 :]
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        for i in range(len(w) - 2):
            a, b, c = w[i], w[i + 1], w[i + 2]
            if a == c and abs(a - b) == 1:  # aba = bab for neighbours
                v = w[:i] + (b, a, b) + w[i + 3 :]
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return seen


def test_simple_iff_square_free(std4):
    # a positive braid is simple iff no word for it contains a square
    for word in _simple_iff_square_free_words(std4, 5):
        x = _positive_nf(std4, word)
        is_simple = x.p * 6 + sum(std4.norm(f) for f in x.factors) == len(word) and (
            (x.p == 0 and len(x.factors) <= 1) or (x.p in (0, 1) and not x.factors)
        )
        has_square = any(
            any(v[i] == v[i + 1] for i in range(len(v) - 1))
            for v in _rewrite_closure(tuple(word), 3)
        )
        assert is_simple == (not has_square)


def test_prepend_atom_swap_identity(std4):
    # a divides Ab and a does not divide A => Ab = aA
    st = std4
    atoms = st.atoms
    for a_idx, b_idx in itertools.product(range(3), repeat=2):
        a = atoms[a_idx]
        for A in st.all_simples:
            ab = st.nf_right_multiply(st.nf_of_simple(A), atoms[b_idx])
            a_divides_ab = ab.p >= 1 or (ab.factors and st.atom_prefix(a_idx, ab.factors[0]))
            a_divides_A = st.atom_prefix(a_idx, A) if A != st.delta else True
            if a_divides_ab and not a_divides_A:
                assert ab == st.nf_left_multiply(a, st.nf_of_simple(A))


def test_atom_joins(std4):
    st = std4
    s1, s2, s3 = st.atoms
    assert st.join(s1, s2) == mult(mult(s1, s2), s1)  # neighbours: m = 3
    assert st.join(s2, s3) == mult(mult(s2, s3), s2)
    assert st.join(s1, s3) == mult(s1, s3)  # distant: m = 2
