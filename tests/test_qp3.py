"""The 3-braid quasipositivity solver: reductions, closed forms, oracle."""

from __future__ import annotations

import itertools
import random
import sys

import pytest

from braidqp import (
    BraidWord,
    PAForm,
    are_conjugate,
    artin_structure,
    is_quasipositive_3braid,
    qp3,
    qp_half_twist_power,
    to_pa_form,
)
from braidqp.qp3 import (
    is_reduced,
    pa_form_element,
    reduce,
    signature_nullity,
)
from conftest import qp3_reference, random_word, reduce_reference


ST3 = artin_structure(3)


def test_pa_form_validation():
    with pytest.raises(ValueError):
        PAForm(0, (2, 0))
    with pytest.raises(ValueError):
        PAForm(0, (-1,))
    pa = PAForm(-2, (3, 2, 1, 2))
    assert pa.n == 4
    assert pa.e == 3 * -2 + 8


def test_is_reduced_cases():
    assert is_reduced(PAForm(5, ()))
    assert is_reduced(PAForm(-3, (4,)))
    assert is_reduced(PAForm(0, (1, 1)))
    assert is_reduced(PAForm(2, (1, 1)))
    assert not is_reduced(PAForm(1, (1, 1)))  # parity mismatch for (1,1)
    assert is_reduced(PAForm(-2, (2, 3)))
    assert not is_reduced(PAForm(-1, (2, 3)))  # n - p odd
    assert not is_reduced(PAForm(0, (1, 3)))  # an exponent below 2


def test_reduce_reaches_reduced_form():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(0, 7)
        pa = PAForm(rng.randrange(-4, 3), tuple(rng.randrange(1, 5) for _ in range(n)))
        out = reduce(pa)
        assert is_reduced(out)
        # the combined power-plus-length measure never increases
        assert out.p + out.n <= pa.p + pa.n
        assert out.e == pa.e


def test_reduce_preserves_conjugacy():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(0, 5)
        pa = PAForm(rng.randrange(-2, 2), tuple(rng.randrange(1, 4) for _ in range(n)))
        out = reduce(pa)
        ok, _ = are_conjugate(pa_form_element(pa), pa_form_element(out))
        assert ok


def test_to_pa_form_is_conjugate_encoding():
    rng = random.Random(13)
    for _ in range(40):
        w = random_word(rng, ST3, rng.randrange(9))
        x = ST3.nf_from_word(w)
        pa = to_pa_form(w)
        assert is_reduced(pa)
        assert pa.e == ST3.nf_algebraic_length(x)
        ok, _ = are_conjugate(x, pa_form_element(pa))
        assert ok
        assert to_pa_form(x) == pa  # NormalForm input agrees with word input


def test_to_pa_form_structure_guard(std4, dual3):
    with pytest.raises(ValueError):
        to_pa_form(std4.nf(0))
    with pytest.raises(ValueError):
        to_pa_form(BraidWord(dual3.ident, 0, ()))


def test_signature_closed_form():
    assert signature_nullity(PAForm(0, (2, 2, 2, 2))) == (0 + 4 - 8, 1)
    assert signature_nullity(PAForm(-2, (3, 2))) == (-2 + 2 - (-1), 0)
    pa = PAForm(-2, (2, 2, 3, 2))
    assert signature_nullity(pa) == (pa.p + pa.n - pa.e, 0)
    with pytest.raises(ValueError):
        signature_nullity(PAForm(0, (1, 3)))  # not reduced
    with pytest.raises(ValueError):
        signature_nullity(PAForm(3, ()))  # n < 2
    with pytest.raises(ValueError):
        signature_nullity(PAForm(0, (1, 1)))


def test_half_twist_power_closed_form():
    assert qp_half_twist_power(0, 0)
    assert qp_half_twist_power(1, 2)  # 4 < 5
    assert not qp_half_twist_power(2, 5)  # boundary: 10 is not < 10
    assert not qp_half_twist_power(-1, 0)
    assert not qp_half_twist_power(0, 1)
    with pytest.raises(ValueError):
        qp_half_twist_power(1, -1)


def test_qp3_nonnegative_power_is_quasipositive():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randrange(0, 5)
        pa = PAForm(rng.randrange(0, 4), tuple(rng.randrange(1, 5) for _ in range(n)))
        assert qp3(pa)


def test_qp3_conjugation_invariance():
    rng = random.Random(19)
    for _ in range(30):
        w = random_word(rng, ST3, rng.randrange(8))
        c = random_word(rng, ST3, 4)
        x = ST3.nf_from_word(w)
        conj = ST3.nf_conjugate(x, ST3.nf_from_word(c))
        assert is_quasipositive_3braid(x) == is_quasipositive_3braid(conj)


def test_qp3_monotone_in_exponents():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(2, 6)
        p = rng.randrange(-4, 0)
        if (n - p) % 2 != 0:
            p -= 1
        small = tuple(rng.randrange(2, 4) for _ in range(n))
        big = tuple(x + rng.randrange(0, 3) for x in small)
        if qp3(PAForm(p, small)):
            assert qp3(PAForm(p, big))


def _counted(monkeypatch, module, name: str) -> list[int]:
    """Wrap the module-level function ``name``, recursive calls included, so
    that the returned one-element list counts its calls."""
    calls = [0]
    inner = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _general_forms(rng: random.Random, count: int):
    for _ in range(count):
        n = rng.randrange(0, 11)
        yield PAForm(rng.randrange(-12, 4), tuple(rng.randrange(1, 7) for _ in range(n)))


def _branching_forms(rng: random.Random, count: int):
    """Almost reduced forms with matched parity and p <= -1: the first entry
    may be 1, the others are at least 2, so the reductions keep the vector
    long and the recursion branches (and flags) below its root."""
    for _ in range(count):
        n = rng.randrange(0, 11)
        p = rng.randrange(-8, 0)
        if (n - p) % 2 != 0:
            p -= 1
        yield PAForm(p, tuple(rng.randrange(2 if i else 1, 5) for i in range(n)))


@pytest.mark.parametrize("forms, seed, count", [(_general_forms, 31, 3000), (_branching_forms, 37, 1500)])
def test_one_reduction_matches_the_two_reference_reductions(monkeypatch, forms, seed, count):
    """qp3 reduces through reduce's loop alone; verdicts, reduced forms and
    the number of recursion nodes equal those of the two-loop reference."""
    nodes = _counted(monkeypatch, sys.modules[qp3.__module__], "_qp3")
    reference_nodes = _counted(monkeypatch, sys.modules[qp3_reference.__module__], "_qp3_reference")
    verdicts = [0, 0]
    for pa in forms(random.Random(seed), count):
        assert reduce(pa) == reduce_reference(pa), pa
        before = (nodes[0], reference_nodes[0])
        verdict = qp3(pa)
        assert verdict == qp3_reference(pa), pa
        assert nodes[0] - before[0] == reference_nodes[0] - before[1], pa
        verdicts[verdict] += 1
    # both verdicts occur, and the recursion goes below its root
    assert min(verdicts) > count // 5
    assert nodes[0] > count


# ----- the letter-deletion oracle ---------------------------------------


def _pa_word_letters(pa: PAForm) -> list[int]:
    """Atom letters of the positive part (alternating exponent blocks)."""
    out: list[int] = []
    for i, run in enumerate(pa.a):
        out.extend([i % 2] * run)
    return out


def _deletion_oracle(pa: PAForm) -> bool:
    """Quasipositive iff deleting e(X) letters of the positive part can
    leave the trivial braid (only valid for p <= 0)."""
    assert pa.p <= 0
    e = pa.e
    letters = _pa_word_letters(pa)
    m = len(letters)
    if e < 0 or e > m:
        return False
    base = ST3.nf(pa.p)
    for keep in itertools.combinations(range(m), m - e):
        x = base
        for i in keep:
            x = ST3.nf_right_multiply(x, ST3.atoms[letters[i]])
        if x.is_identity():
            return True
    return False


def _reduced_pairs(max_sum, p_lo):
    for n in range(0, 7):
        vectors = (
            [()]
            if n == 0
            else [
                v
                for v in itertools.product(range(2, max_sum), repeat=n)
                if sum(v) <= max_sum
            ]
        )
        for v in vectors:
            for p in range(p_lo, 1):
                pa = PAForm(p, v)
                if is_reduced(pa):
                    yield pa
        if n == 2:
            for p in range(p_lo, 1):
                if p % 2 == 0:
                    yield PAForm(p, (1, 1))


def test_qp3_agrees_with_deletion_oracle():
    count = 0
    for pa in _reduced_pairs(max_sum=10, p_lo=-5):
        assert qp3(pa) == _deletion_oracle(pa), pa
        count += 1
    assert count > 200


def test_qp3_oracle_on_larger_exponent_sums():
    # a sparser sweep further out, including the all-twos families
    rng = random.Random(29)
    cases = [
        PAForm(-3, (2,) * 7),
        PAForm(-5, (2,) * 7),
        PAForm(-3, (3, 2, 2, 2, 2)),
        PAForm(-4, (2, 2, 3, 2, 2, 3)),
        PAForm(-2, (5, 4, 3, 2)),
        PAForm(-6, (2, 2, 2, 2, 2, 2)),
    ]
    for _ in range(20):
        n = rng.randrange(2, 7)
        p = -rng.randrange(1, 5)
        if (n - p) % 2 != 0:
            p -= 1
        v = tuple(rng.randrange(2, 5) for _ in range(n))
        if sum(v) <= 14:
            cases.append(PAForm(p, v))
    for pa in cases:
        if sum(pa.a) <= 14 and is_reduced(pa):
            assert qp3(pa) == _deletion_oracle(pa), pa
