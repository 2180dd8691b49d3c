"""Membership in one or two conjugacy classes of atom powers."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from braidqp import (
    BraidWord,
    FormWitness,
    RecognitionQuery,
    ResourceCapExceeded,
    StructureId,
    StructureKind,
    artin_structure,
    dual_structure,
    match_power_form,
    match_product_form,
    parse_word,
    rebuild_witness,
    recognize,
    slide_to_circuit,
    sliding_circuits,
    structure_for,
    summit_length_filter,
    verify_witness,
)
from conftest import (
    conjugacy_branch_reference,
    is_suffix,
    random_nf,
    random_word,
    standard_power_form,
    standard_sc_search,
)


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


@pytest.mark.parametrize("make", [artin_structure, dual_structure])
def test_positive_summit_product_of_two_atoms(make):
    # a conjugate of a positive length-2 braid: its circuit element spells
    # the two atoms of the witness, with no search
    rng = random.Random(43)
    for n in range(2, 7):
        st = make(n)
        products = [
            st.nf_from_word(BraidWord(st.ident, 0, ((i, 1), (j, 1))))
            for i in range(len(st.atoms))
            for j in range(len(st.atoms))
        ]
        for ab in rng.sample(products, min(len(products), 9)):
            c = random_nf(rng, st, 4)
            x = st.nf_conjugate(ab, c)
            xa, ya = rng.randrange(len(st.atoms)), rng.randrange(len(st.atoms))
            res = recognize(x, RecognitionQuery(st.ident, xa, 1, ya, 1))
            assert res.verdict and res.witness is not None
            w = res.witness
            assert w.element == slide_to_circuit(x)[0]
            assert (w.location, w.n, w.k, w.l) == ("conjugacy", 0, 1, 1)
            assert w.x1 in st.atom_index and w.y1 in st.atom_index
            assert verify_witness(x, w)


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
        assert res.witness.location in ("input", "conjugacy", "orbit")


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


def test_witness_fields_describe_the_form(dual4, std4):
    # standard witnesses of negative-summit products are mapped back from the
    # dual structure; the mapped factors must satisfy the standard ladder
    for st in (dual4, std4):
        rng = random.Random(41)
        laddered = 0
        for _ in range(10):
            prod = st.nf_multiply(
                _conjugated_power(st, rng, rng.randrange(len(st.atoms)), 1),
                _conjugated_power(st, rng, rng.randrange(len(st.atoms)), 2),
            )
            res = recognize(prod, RecognitionQuery(st.ident, 0, 1, 0, 2))
            assert res.verdict and res.witness is not None
            w = res.witness
            assert w.x1 in st.atom_index and w.y1 in st.atom_index
            assert len(w.a_factors) == w.n and len(w.b_factors) == w.n
            laddered += w.n > 0
            # the ladder telescopes: A_i g^{i-1} B_i = g^i
            for i, (a, b) in enumerate(zip(w.a_factors, w.b_factors), start=1):
                t = st.nf_mult_delta(st.nf_of_simple(a), i - 1)
                assert st.nf_right_multiply(t, b) == st.nf(i)
            assert rebuild_witness(w) == w.element
        assert laddered > 0


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
    # standard two-class queries are matched in the dual structure only
    std = artin_structure(4)
    with pytest.raises(ValueError):
        match_product_form(std.nf(-1, (std.atoms[0],) * 2), RecognitionQuery(std.ident, 0, 1, 0, 1))


@pytest.mark.parametrize("which", ["std4", "dual4"])
def test_verify_witness_checks_the_ladder(which, request):
    # factors that re-multiply to the element but break A_1 B_1 = g: with
    # B_1 the identity the shape is no class product at all
    st = request.getfixturevalue(which)
    for s in st.all_simples[:-1]:
        w = FormWitness(
            st.nf(0), st.nf(0), "input", 1, 1, st.atoms[0], (s,), (st.identity,), 1, st.atoms[-1]
        )
        w = replace(w, element=rebuild_witness(w))
        assert not verify_witness(w.element, w)


@pytest.mark.parametrize(
    "kind, text", [("dual", "2 1 -1 2 -1 2"), ("standard", "-1 2 1 -2 -2 1 2 2")]
)
def test_orbit_walk_honours_max_orbit(kind, text):
    # each braid is its own circuit element (in the dual structure, after
    # translation, for the standard one), so only the orbit walk exceeds 1
    st = structure_for(StructureId(3, StructureKind(kind)))
    x = st.nf_from_word(parse_word(text, st.ident))
    q = RecognitionQuery(st.ident, 0, 1, 0, 1)
    with pytest.raises(ResourceCapExceeded) as exc:
        recognize(x, q, max_orbit=1)
    assert exc.value.what == "cycling orbit"
    assert recognize(x, q).verdict == (kind == "standard")


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


@pytest.mark.parametrize("make", [artin_structure, dual_structure])
def test_two_strand_atom_powers(make):
    # on two strands the atom is the Garside element
    st = make(2)
    w = lambda t: st.nf_from_word(parse_word(t, st.ident))
    x = w("1 1 1")
    res = recognize(x, RecognitionQuery(st.ident, 0, 3))
    assert res.verdict
    assert (res.witness.location, res.witness.n, res.witness.x1) == ("input", 0, st.atoms[0])
    assert verify_witness(x, res.witness)
    assert not recognize(w("1 1"), RecognitionQuery(st.ident, 0, 3)).verdict


@pytest.mark.parametrize("which", ["std3", "dual3"])
def test_algebraic_length_decides_no_first(which, request):
    # x1^20000 y1 is never built: the algebraic lengths 2 and 20001 differ
    st = request.getfixturevalue(which)
    x = st.nf_from_word(parse_word("1 2", st.ident))
    assert not recognize(x, RecognitionQuery(st.ident, 0, 20000, 0, 1)).verdict
    assert not recognize(x, RecognitionQuery(st.ident, 0, 20000)).verdict


def _artin_word(rng, n, length):
    return [(rng.randrange(1, n), rng.choice((1, -1))) for _ in range(length)]


def _in_structure(st, artin):
    letters = tuple((st.ident.atom_index_of_artin(i), s) for i, s in artin)
    return st.nf_from_word(BraidWord(st.ident, 0, letters))


@pytest.mark.parametrize("n", [4, 5])
def test_standard_verdicts_agree_with_sc_search_and_dual(n):
    # three decisions on one braid: the library's standard answer, the
    # whole-SC search of the standard structure, and the dual answer
    std, dual = artin_structure(n), dual_structure(n)
    rng = random.Random(61 + n)
    counts = {"yes": 0, "open": 0}
    while min(counts.values()) < 12:
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        if counts["yes"] < 12:
            g1, g2 = _artin_word(rng, n, 3), _artin_word(rng, n, 3)
            word, kind = [], "yes"
            for g, e in ((g1, k), (g2, l)):
                inv = [(i, -s) for i, s in reversed(g)]
                word += inv + [(rng.randrange(1, n), 1)] * e + g
        else:
            word, kind = _artin_word(rng, n, 8 + (k + l) % 2), "open"
            if sum(s for _, s in word) != k + l:
                continue
        x = _in_structure(std, word)
        q = RecognitionQuery(std.ident, 0, k, 0, l)
        xt, _ = slide_to_circuit(x)
        if xt.p >= 0 or summit_length_filter(xt, q) is False:
            continue  # only the negative-summit queries the filter passes
        counts[kind] += 1
        ref = standard_sc_search(x, q)
        lib = recognize(x, q)
        xd = _in_structure(dual, word)
        dual_res = recognize(xd, RecognitionQuery(dual.ident, 0, k, 0, l))
        assert lib.verdict == ref.verdict == dual_res.verdict, (word, k, l)
        if kind == "yes":
            assert lib.verdict
        for original, res in ((x, lib), (x, ref), (xd, dual_res)):
            if res.verdict:
                assert verify_witness(original, res.witness)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_power_form_matches_standard_reference(n):
    # match_power_form against the reference standard shape, which tries a
    # candidate list and tests that x1 ends A_1 before the ladder
    st = artin_structure(n)
    rng = random.Random(180 + n)
    fused_yes = 0
    for k in range(1, 5):
        q = RecognitionQuery(st.ident, 0, k)
        for _ in range(40):
            c = _artin_word(rng, n, rng.randrange(11))
            inv = [(i, -s) for i, s in reversed(c)]
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            r = rng.randrange(6)
            signs = [1] * (r + k) + [-1] * r
            rng.shuffle(signs)
            for word in (
                inv + [(i, 1)] * k + c,
                inv + [(i, 1)] * (k - 1) + [(j, 1)] + c,
                [(rng.randrange(1, n), s) for s in signs],
            ):
                x = _in_structure(st, word)
                w = match_power_form(x, q)
                assert w == standard_power_form(x, q), (word, k)
                if w is not None and w.n >= 1:
                    # the ladder at i = 1 gives A_1 = complement_inv(x1 B_1) x1
                    assert is_suffix(st, w.x1, w.a_factors[0])
                    fused_yes += 1
    assert fused_yes >= 100


def _power_product(st, i, j, k, l):
    return st.nf_from_word(BraidWord(st.ident, 0, ((i, 1),) * k + ((j, 1),) * l))


def _positive_summit_queries(st, rng, count):
    """Queries whose summit is positive, (k, l) != (1, 1): an atom-power
    product, a positive word or a word with one inverse letter, each of
    algebraic length k + l and conjugated by a random 4-letter word."""
    pairs = [(k, l) for k in (1, 2, 3) for l in (1, 2, 3) if (k, l) != (1, 1)]
    out = []
    while len(out) < count:
        k, l = rng.choice(pairs)
        atoms = [rng.randrange(len(st.atoms)) for _ in range(k + l + 2)]
        kind = rng.randrange(3)
        if kind == 0:
            y = _power_product(st, atoms[0], atoms[1], k, l)
        else:
            letters = [(a, 1) for a in atoms[: k + l]]
            if kind == 2:
                letters += [(atoms[-2], 1), (atoms[-1], -1)]
                rng.shuffle(letters)
            y = st.nf_from_word(BraidWord(st.ident, 0, tuple(letters)))
        x = st.nf_conjugate(y, random_nf(rng, st, 4))
        xt, c = slide_to_circuit(x)
        if xt.p >= 0:
            out.append((x, xt, c, RecognitionQuery(st.ident, 0, k, 0, l)))
    return out


@pytest.mark.parametrize("make", [artin_structure, dual_structure])
def test_positive_summit_branch_matches_whole_set_reference(make):
    # the growth that stops at the first target against the whole set looked
    # up in atom-pair order: same verdicts, and every YES names x1^k y1^l
    counts = {"yes": 0, "no by summit": 0, "no after growth": 0}
    for n in range(3, 7):
        st = make(n)
        rng = random.Random(90 + n)
        summits = {}  # (k, l) -> summit (inf, sup) of every target's circuit element
        for x, xt, c, q in _positive_summit_queries(st, rng, 12):
            res = recognize(x, q)
            assert res.verdict == conjugacy_branch_reference(xt, c, q).verdict
            if res.verdict:
                w = res.witness
                i, j = st.atom_index[w.x1], st.atom_index[w.y1]
                assert w.element == _power_product(st, i, j, q.k, q.l)
                assert (w.location, w.n, w.k, w.l) == ("conjugacy", 0, q.k, q.l)
                assert verify_witness(x, w)
                counts["yes"] += 1
                continue
            if (q.k, q.l) not in summits:
                reps = (
                    slide_to_circuit(_power_product(st, i, j, q.k, q.l))[0]
                    for i in range(len(st.atoms))
                    for j in range(len(st.atoms))
                )
                summits[q.k, q.l] = {(r.inf, r.sup) for r in reps}
            grown = (xt.inf, xt.sup) in summits[q.k, q.l]
            counts["no after growth" if grown else "no by summit"] += 1
    assert min(counts.values()) >= 3, counts


def test_positive_summit_cap_bounds_the_elements_enumerated(dual5):
    st = dual5
    q = RecognitionQuery(st.ident, 0, 2, 0, 1)
    x = st.nf_from_word(parse_word("a42 a31 a31", st.ident))
    xt, c = slide_to_circuit(x)
    assert len(sliding_circuits(xt)) == 30
    # a YES met among the first two elements returns under a cap of two...
    res = recognize(x, q, max_sc=2)
    assert res.verdict and verify_witness(x, res.witness)
    with pytest.raises(ResourceCapExceeded):
        conjugacy_branch_reference(xt, c, q, max_sc=2)
    # ...a NO that passes the summit rule enumerates the whole set (10 here)...
    z = st.nf_from_word(parse_word("a31 a42 a53", st.ident))
    assert not recognize(z, q).verdict
    with pytest.raises(ResourceCapExceeded):
        recognize(z, q, max_sc=2)
    # ...and a NO by the summit rule enumerates nothing
    assert not recognize(st.nf_from_word(parse_word("1 2 3", st.ident)), q, max_sc=1).verdict
