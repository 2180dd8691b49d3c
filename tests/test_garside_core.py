"""Lattice operations against the brute-force oracle; normal-form calculus."""

from __future__ import annotations

import itertools
import random

import pytest

from braidqp import (
    BraidWord,
    algebraic_length,
    artin_structure,
    dual_structure,
    inverse_perm,
    mult,
)
from conftest import (
    atom_suffix,
    conjugate_reference,
    greedy_meet,
    inverse_reference,
    is_left_weighted,
    is_suffix,
    left_multiply_reference,
    local_sliding_reference,
    nf_from_word_reference,
    nf_validate,
    payload_closure,
    random_nf,
    random_word,
    right_multiply_reference,
    scan_join,
)


def _positive_word(st, letters):
    return BraidWord(st.ident, 0, tuple((i, 1) for i in letters))


# ----- divisibility and lattice operations vs the oracle ----------------


@pytest.mark.parametrize("which", ["std4", "dual5"])
def test_simple_enumeration_matches_oracle(which, request):
    st = request.getfixturevalue(which)
    oracle = request.getfixturevalue(f"oracle_{which}")
    assert set(st.all_simples) == set(oracle.simples)
    assert len(st.all_simples) == {"std4": 24, "dual5": 42}[which]


@pytest.mark.parametrize(
    "make, n",
    [(artin_structure, n) for n in range(2, 7)] + [(dual_structure, n) for n in range(2, 9)],
)
def test_all_simples_is_the_lattice_closure(make, n):
    # the library closes the identity under s -> s a for atoms a dividing
    # complement(s); the reference closes it under atoms that keep a simple
    # payload and add one to the norm, without the lattice code
    st = make(n)
    assert set(st.all_simples) == payload_closure(st)
    keys = [(st.norm(s), s) for s in st.all_simples]
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("which", ["std4", "dual5"])
def test_prefix_and_suffix_match_oracle(which, request):
    st = request.getfixturevalue(which)
    oracle = request.getfixturevalue(f"oracle_{which}")
    for a in st.all_simples:
        for b in st.all_simples:
            assert st.is_prefix(a, b) == oracle.is_prefix(a, b)
            assert is_suffix(st, a, b) == oracle.is_suffix(a, b)


@pytest.mark.parametrize("which", ["std4", "dual5"])
def test_atom_prefix_predicates_match_oracle(which, request):
    st = request.getfixturevalue(which)
    oracle = request.getfixturevalue(f"oracle_{which}")
    for i, atom in enumerate(st.atoms):
        for s in st.all_simples:
            assert st.atom_prefix(i, s) == oracle.is_prefix(atom, s)
            assert atom_suffix(st, i, s) == oracle.is_suffix(atom, s)


@pytest.mark.parametrize("which", ["std4", "dual5"])
def test_meet_join_universal_property(which, request):
    st = request.getfixturevalue(which)
    oracle = request.getfixturevalue(f"oracle_{which}")
    for a in st.all_simples:
        for b in st.all_simples:
            assert st.meet(a, b) == oracle.meet(a, b)
            assert st.join(a, b) == oracle.join(a, b)


@pytest.mark.parametrize(
    "st",
    [artin_structure(5), artin_structure(6), dual_structure(6), dual_structure(7)],
    ids=["std5", "std6", "dual6", "dual7"],
)
def test_meet_matches_greedy_peel(st):
    simples = st.all_simples
    special = (st.identity, st.delta) + st.atoms
    for a in special:
        for b in simples:
            assert st.meet(a, b) == greedy_meet(st, a, b)
            assert st.meet(b, a) == greedy_meet(st, b, a)
    rng = random.Random(5)
    for _ in range(3000):
        a, b = rng.choice(simples), rng.choice(simples)
        assert st.meet(a, b) == greedy_meet(st, a, b)


@pytest.mark.parametrize(
    "st",
    [artin_structure(5), artin_structure(6), dual_structure(6), dual_structure(7)],
    ids=["std5", "std6", "dual6", "dual7"],
)
def test_join_matches_scan(st):
    simples = st.all_simples
    special = (st.identity, st.delta) + st.atoms
    for a in special:
        for b in simples:
            assert st.join(a, b) == scan_join(st, a, b)
            assert st.join(b, a) == scan_join(st, b, a)
    rng = random.Random(7)
    for _ in range(3000):
        a, b = rng.choice(simples), rng.choice(simples)
        assert st.join(a, b) == scan_join(st, a, b)


@pytest.mark.parametrize("which", ["std4", "dual5"])
def test_lattice_laws(which, request):
    st = request.getfixturevalue(which)
    simples = st.all_simples
    for a in simples:
        assert st.meet(a, a) == a
        assert st.join(a, a) == a
        assert st.meet(a, st.delta) == a
        assert st.meet(a, st.identity) == st.identity
    for a, b in itertools.product(simples, repeat=2):
        assert st.meet(a, b) == st.meet(b, a)
        assert st.join(a, b) == st.join(b, a)
        assert st.is_prefix(st.meet(a, b), a)
        assert st.is_prefix(a, st.join(a, b))
    rng = random.Random(11)
    for _ in range(4000):
        a, b, c = (rng.choice(simples) for _ in range(3))
        assert st.meet(st.meet(a, b), c) == st.meet(a, st.meet(b, c))
        assert st.join(st.join(a, b), c) == st.join(a, st.join(b, c))


@pytest.mark.parametrize("make", [artin_structure, dual_structure], ids=["std", "dual"])
@pytest.mark.parametrize("n", range(2, 8))
def test_delta_power_is_a_product_of_deltas(make, n):
    st = make(n)
    m, d = 1, st.delta
    while d != st.identity:
        m, d = m + 1, mult(d, st.delta)
    for k in range(-3 * m, 3 * m + 1):
        step = st.delta if k >= 0 else inverse_perm(st.delta)
        expected = st.identity
        for _ in range(abs(k)):
            expected = mult(expected, step)
        assert st.delta_power(k) == expected


@pytest.mark.parametrize("make", [artin_structure, dual_structure], ids=["std", "dual"])
def test_memos_are_per_instance(make):
    # a memo on a class would hold every instance, keyed by self, for good
    st = make(4)
    for cls in type(st).__mro__:
        for name, value in vars(cls).items():
            assert not hasattr(value, "cache_info"), f"{cls.__name__}.{name}"


@pytest.mark.parametrize("which", ["std4", "dual5"])
def test_complement_bijective_and_squares_to_twist(which, request):
    st = request.getfixturevalue(which)
    simples = st.all_simples
    images = {st.complement(s) for s in simples}
    assert images == set(simples)
    for s in simples:
        assert mult(s, st.complement(s)) == st.delta
        assert mult(st.tau(st.complement(s), -1), s) == st.delta  # the left complement
        assert st.complement(st.complement(s)) == st.tau(s, 1)
        assert st.tau(st.tau(s, 1), -1) == s


# ----- normal forms ------------------------------------------------------


@pytest.mark.parametrize("which", ["std4", "dual4"])
def test_one_pass_updates_match_recomputation(which, request):
    st = request.getfixturevalue(which)
    rng = random.Random(23)
    simples = st.all_simples
    for _ in range(1000):
        x = random_nf(rng, st, rng.randrange(9))
        nf_validate(st, x)
        s = rng.choice(simples)
        right = st.nf_right_multiply(x, s)
        nf_validate(st, right)
        s_word = _positive_word(st, st.spell_simple(s))
        assert right == st.nf_multiply(x, st.nf_from_word(s_word))
        left = st.nf_left_multiply(s, x)
        nf_validate(st, left)
        assert left == st.nf_multiply(st.nf_from_word(s_word), x)


@pytest.mark.parametrize("make", [artin_structure, dual_structure], ids=["std", "dual"])
@pytest.mark.parametrize("n", range(2, 9))
def test_passes_match_full_pass_references(make, n):
    # the library's passes stop at the first unchanged factor, its inverse
    # reads the factors off directly, and its word reading twists once
    st = make(n)
    rng = random.Random(53 + n)
    negative = gained_delta = 0
    for _ in range(20):
        word = BraidWord(st.ident, rng.randint(-3, 3), random_word(rng, st, rng.randrange(24)).letters)
        x = st.nf_from_word(word)
        assert x == nf_from_word_reference(st, word)
        inverse = st.nf_inverse(x)
        assert inverse == inverse_reference(st, x)
        simples = {st.identity, st.delta, *st.atoms, *random_nf(rng, st, 8).factors}
        if x.factors:
            # a product that makes a Delta factor on the right, and on the left
            simples.add(st.complement(x.factors[-1]))
            # the left complement tau^{-1}(complement(f)) of f = x.factors[0], twisted by -p
            simples.add(st.tau(st.complement(x.factors[0]), -x.p - 1))
        outputs = [x, inverse]
        for s in sorted(simples):
            right = st.nf_right_multiply(x, s)
            assert right == right_multiply_reference(st, x, s)
            left = st.nf_left_multiply(s, x)
            assert left == left_multiply_reference(st, s, x)
            gained_delta += s != st.delta and right.p > x.p
            outputs += [right, left]
        negative += x.p < 0
        for z in outputs:
            nf_validate(st, z)
    assert negative > 0 and (gained_delta > 0 or n == 2)


@pytest.mark.parametrize("which", ["std3", "std4", "dual4"])
def test_inverse_and_multiply(which, request):
    st = request.getfixturevalue(which)
    rng = random.Random(5)
    for _ in range(200):
        x = random_nf(rng, st, rng.randrange(10))
        y = random_nf(rng, st, rng.randrange(10))
        assert st.nf_multiply(x, st.nf_inverse(x)).is_identity()
        assert st.nf_multiply(st.nf_inverse(x), x).is_identity()
        xy = st.nf_multiply(x, y)
        nf_validate(st, xy)
        assert st.nf_inverse(xy) == st.nf_multiply(st.nf_inverse(y), st.nf_inverse(x))
        # the canonical length is subadditive
        assert xy.canonical_length <= x.canonical_length + y.canonical_length
    for p in range(-3, 4):
        assert st.nf_inverse(st.nf(p)) == st.nf(-p)


@pytest.mark.parametrize("which", ["std3", "std4", "dual3", "dual4", "dual5"])
def test_conjugate_by_simple_matches_general_conjugation(which, request):
    st = request.getfixturevalue(which)
    rng = random.Random(37)
    xs = [st.nf(p) for p in (0, 1, -1, -2, 3)]
    xs += [random_nf(rng, st, rng.randrange(1, 9)) for _ in range(10)]
    assert sum(x.p < 0 and bool(x.factors) for x in xs) >= 3
    assert {st.identity, st.delta} <= set(st.all_simples)
    for x in xs:
        for s in st.all_simples:
            y = st.nf_conjugate_by_simple(x, s)
            nf_validate(st, y)
            assert y == conjugate_reference(st, x, st.nf_of_simple(s))


@pytest.mark.parametrize("make", [artin_structure, dual_structure], ids=["std", "dual"])
@pytest.mark.parametrize("n", range(3, 7))
def test_conjugate_matches_inverse_and_multiply(make, n):
    st = make(n)
    rng = random.Random(41)
    cs = [random_nf(rng, st, rng.randrange(4, 16)) for _ in range(40)]
    cs = [c for c in cs if c.p < 0 and len(c.factors) >= 2]
    assert len(cs) >= 10
    for c in cs:
        x = random_nf(rng, st, rng.randrange(12))
        y = st.nf_conjugate(x, c)
        nf_validate(st, y)
        assert y == conjugate_reference(st, x, c)


@pytest.mark.parametrize("which", ["std4", "dual4"])
def test_algebraic_length_is_a_homomorphism(which, request):
    st = request.getfixturevalue(which)
    rng = random.Random(31)
    for _ in range(200):
        w = random_word(rng, st, rng.randrange(10))
        x = st.nf_from_word(w)
        assert st.nf_algebraic_length(x) == algebraic_length(w)
        c = random_nf(rng, st, 4)
        assert st.nf_algebraic_length(st.nf_conjugate(x, c)) == algebraic_length(w)


def _delta_meet(st, z):
    """The Garside element meet a positive element, read off its normal form."""
    assert z.p >= 0
    if z.p >= 1:
        return st.delta
    return z.factors[0] if z.factors else st.identity


def test_delta_meet_of_products(std4):
    # Delta ^ (XY) = Delta ^ (X (Delta ^ Y)) for positive X, Y
    st = std4
    rng = random.Random(17)
    for _ in range(300):
        x = random_nf(rng, st, rng.randrange(8), signed=False)
        y = random_nf(rng, st, rng.randrange(8), signed=False)
        lhs = _delta_meet(st, st.nf_multiply(x, y))
        rhs = _delta_meet(st, st.nf_right_multiply(x, _delta_meet(st, y)))
        assert lhs == rhs


def _right_normal_form(st, letters):
    """Right-weighted factors of a positive Artin word, via word reversal.

    Reversal is an anti-automorphism fixing the atoms; it turns the left
    normal form of the reversed word into the right normal form, with each
    permutation inverted.
    """
    rev = st.nf_from_word(_positive_word(st, tuple(reversed(letters))))
    return rev.p, [inverse_perm(f) for f in reversed(rev.factors)]


def test_right_weighted_head_detects_delta(std4):
    # if X right weighted, Y left weighted and Delta divides XY,
    # then Delta divides (last right factor of X) * (first factor of Y)
    st = std4
    rng = random.Random(29)
    checked = 0
    for _ in range(2000):
        letters = [rng.randrange(3) for _ in range(rng.randrange(1, 8))]
        p, rfactors = _right_normal_form(st, letters)
        if p != 0 or not rfactors:
            continue
        # rebuild X from its right-weighted factors and sanity-check
        x = st.nf_from_word(_positive_word(st, letters))
        rebuilt = st.nf(0)
        for f in rfactors:
            rebuilt = st.nf_right_multiply(rebuilt, f)
        assert rebuilt == x
        y = random_nf(rng, st, rng.randrange(1, 8), signed=False)
        if y.p != 0 or not y.factors:
            continue
        if st.nf_multiply(x, y).p >= 1:
            head = st.nf_right_multiply(st.nf_of_simple(rfactors[-1]), y.factors[0])
            assert head.p >= 1
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize("which", ["std4", "dual4"])
def test_word_roundtrip_through_normal_form(which, request):
    st = request.getfixturevalue(which)
    rng = random.Random(41)
    for _ in range(200):
        x = random_nf(rng, st, rng.randrange(10))
        assert st.nf_from_word(st.nf_to_word(x)) == x


@pytest.mark.parametrize("which", ["std4", "dual4"])
def test_spell_simple_spells_its_input(which, request):
    st = request.getfixturevalue(which)
    for s in st.all_simples:
        word = st.spell_simple(s)
        assert len(word) == st.norm(s)
        acc = st.identity
        for i in word:
            acc = mult(acc, st.atoms[i])
        assert acc == s


@pytest.mark.parametrize(
    "make, n",
    [(artin_structure, n) for n in (3, 4, 5)] + [(dual_structure, n) for n in (3, 4, 5, 6)],
    ids=[f"std{n}" for n in (3, 4, 5)] + [f"dual{n}" for n in (3, 4, 5, 6)],
)
def test_local_sliding_matches_reference_on_every_pair(make, n):
    # the standard slide is read off the meet's bubble sort, not built from
    # the meet, a product and a quotient as the reference does
    st = make(n)
    for u in st.all_simples:
        for v in st.all_simples:
            assert st.local_sliding(u, v) == local_sliding_reference(st, u, v), (u, v)


def _run_pieces(rng, st):
    """Same-sign runs for word reading: Delta and Delta^-1 spelled in atoms,
    a doubled atom of either sign (the run stops being simple at the second
    letter), a random atom spelling of a simple (band runs in the dual
    structure) read forwards or backwards with either sign, and random
    one-sign runs."""
    delta = st.spell_simple(st.delta)
    atom = rng.randrange(len(st.atoms))
    spelled, s = [], st.identity
    for _ in range(rng.randint(1, st.norm(st.delta))):
        fits = [i for i in range(len(st.atoms)) if st.atom_prefix(i, st.complement(s))]
        spelled.append(rng.choice(fits))
        s = mult(s, st.atoms[spelled[-1]])
    if rng.random() < 0.5:
        spelled.reverse()
    sign = rng.choice((1, -1))
    length = rng.randrange(1, 2 * st.ident.strands)
    return [
        [(i, 1) for i in delta],
        [(i, -1) for i in reversed(delta)],
        [(atom, 1), (atom, 1)],
        [(atom, -1), (atom, -1)],
        [(i, sign) for i in spelled],
        [(rng.randrange(len(st.atoms)), sign) for _ in range(length)],
    ]


@pytest.mark.parametrize("make", [artin_structure, dual_structure], ids=["std", "dual"])
@pytest.mark.parametrize("n", range(2, 9))
def test_word_reading_by_runs_matches_reference(make, n):
    # the library reads one twisted simple per same-sign run that stays
    # simple; the reference reads one letter at a time
    st = make(n)
    rng = random.Random(811 + n)
    for _ in range(25):
        letters = []
        for _ in range(rng.randint(1, 4)):
            letters += rng.choice(_run_pieces(rng, st))
        word = BraidWord(st.ident, rng.randint(-3, 3), tuple(letters))
        x = st.nf_from_word(word)
        assert x == nf_from_word_reference(st, word), word
        nf_validate(st, x)


def test_local_sliding_preserves_product_and_weights(std4, dual4):
    for st in (std4, dual4):
        rng = random.Random(13)
        simples = st.all_simples
        for _ in range(500):
            u, v = rng.choice(simples), rng.choice(simples)
            u2, v2 = st.local_sliding(u, v)
            assert mult(u2, v2) == mult(u, v)
            assert st.norm(u2) + st.norm(v2) == st.norm(u) + st.norm(v)
            assert is_left_weighted(st, u2, v2) or u2 == st.delta
