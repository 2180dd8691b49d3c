"""The three workloads: seeded inputs, the timed operations and their checks.

A workload is a sequence of rounds.  Every round attempts the same list of
operations (same kinds, same counts, same order); only the random parts of
the inputs change with the seed and the round index.  The number of rounds
is fixed by the requested run length (``rounds_for``), not by the clock.
Each operation is a zero-argument call into the program, timed on its own,
and a check run after the clock has stopped.  Checks use ``oracle`` (permutation and Burau
fingerprints, the benchmark's own band-to-Artin translation, spelling of
simples and word parser) and facts known from how an input was built; they never compare
against stored copies of the program's earlier output.

``conjugacy`` and ``recognize`` take their conjugacy classes from a fixed
pool drawn once from ``POOL_SEED``; the run seed draws the conjugators, the
partners and the NO instances.  The cost of a sliding-circuits enumeration
is set by the class (its SC size ranges over two orders of magnitude between
random words of one length), so a pool fixed across seeds is what keeps two
runs with different seeds comparable.  ``kernels`` draws all of its words
from the run seed, fresh in every round, so that the memo caches of the
program keep meeting new simples.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle
from oracle import (
    band_pairs,
    band_word,
    conjugates_to,
    dual_delta_word,
    half_twist_word,
    inverse_word,
    provably_not_conjugate,
    same_element,
)

POOL_SEED = 1406_0544
STANDARD = "standard"
DUAL = "dual"
KINDS = (STANDARD, DUAL)


class CheckFailed(Exception):
    """An output of the program disagreed with an independent check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    """One timed call.  ``label`` groups operations for per-layer figures."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


# ----- words: the benchmark's own spelling and translation ---------------


def random_artin(rng: random.Random, n: int, length: int) -> list[tuple[int, int]]:
    return [(rng.randrange(1, n), rng.choice((1, -1))) for _ in range(length)]


def conjugate_word(c, x):
    """The word of c^-1 x c."""
    return inverse_word(c) + list(x) + list(c)


def garside_word(kind: str, n: int, g: int) -> list[tuple[int, int]]:
    """The g-th Garside power, as full twists times a short remainder."""
    base, period = (half_twist_word(n), 2) if kind == STANDARD else (dual_delta_word(n), n)
    twists, rest = divmod(g, period)
    return ([(0, twists)] if twists else []) + base * rest


def atom_word(kind: str, n: int, index: int) -> list[tuple[int, int]]:
    if kind == STANDARD:
        return [(index + 1, 1)]
    return band_word(*band_pairs(n)[index])


def atom_index_of_artin(kind: str, n: int, i: int) -> int:
    if kind == STANDARD:
        return i - 1
    return band_pairs(n).index((i + 1, i))


def to_program_word(B, kind: str, n: int, art) -> Any:
    st = structure(B, kind, n)
    letters = tuple((atom_index_of_artin(kind, n, i), s) for i, s in art)
    return B.BraidWord(st.ident, 0, letters)


def letters_artin(kind: str, n: int, letters) -> list[tuple[int, int]]:
    """Translate signed atoms ``(atom_index, +-1)`` to Artin letters."""
    out = []
    for index, sign in letters:
        a = atom_word(kind, n, index)
        out += a if sign > 0 else inverse_word(a)
    return out


def program_word_to_artin(kind: str, n: int, w) -> list[tuple[int, int]]:
    """Translate a program BraidWord (Garside power, signed atoms) to Artin letters."""
    return garside_word(kind, n, w.g) + letters_artin(kind, n, w.letters)


def simple_artin(kind: str, n: int, s) -> list[tuple[int, int]]:
    """An Artin word for a simple element, spelled from its permutation payload.

    The payload ``s`` is a permutation in one-line notation, composed left to
    right.  Standard: a reduced word, found by bubble sort; a descent at
    position j is the prefix sigma_{j+1}, and swapping it away leaves the
    rest.  Dual: for each block b_1 < .. < b_m of the non-crossing
    partition, the descending cycle a_{b_m b_(m-1)} .. a_{b_2 b_1}.
    """
    if kind == STANDARD:
        perm, out, j = list(s), [], 0
        while j < n - 1:
            if perm[j] > perm[j + 1]:
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
                out.append((j + 1, 1))
                j = max(j - 1, 0)
            else:
                j += 1
        return out
    out, seen = [], set()
    for start in range(n):
        if start in seen:
            continue
        block, x = [start], s[start]
        while x != start:
            block.append(x)
            x = s[x]
        seen.update(block)
        strands = [b + 1 for b in block]
        for k in range(len(strands) - 1, 0, -1):
            out += band_word(strands[k], strands[k - 1])
    return out


def nf_artin(kind: str, n: int, x) -> list[tuple[int, int]]:
    """An Artin word for a normal form, read from its Garside power and factors."""
    out = garside_word(kind, n, x.p)
    for f in x.factors:
        out += simple_artin(kind, n, f)
    return out


def artin_text(n: int, art) -> str:
    """Word text of an Artin word, as standard-structure integer tokens."""
    return band_text(STANDARD, n, [(i - 1, s) for i, s in art])


def band_text(kind: str, n: int, letters) -> str:
    """Word text in the grammar of the words module, spelled by the benchmark."""
    items = []
    pairs = band_pairs(n) if kind == DUAL else None
    for index, sign in letters:
        if kind == STANDARD:
            items.append(str((index + 1) * sign))
        else:
            t, s = pairs[index]
            items.append(f"a{t}{s}" if sign > 0 else f"a{t}{s}^-1")
    return " ".join(items)


def parse_output_text(kind: str, n: int, text: str) -> list[tuple[int, int]]:
    """Read word text printed by the program into Artin letters."""
    out: list[tuple[int, int]] = []
    for token in text.split():
        name, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        if name in ("D", "d"):
            # the program prints the Garside power first, if at all
            require(not out, f"Garside power not in front: {text!r}")
            out = garside_word(kind, n, e)
        elif name.lstrip("-").isdigit():
            i = int(name)
            out += [(abs(i), 1 if i > 0 else -1)] * abs(e)
        elif kind == DUAL and len(name) == 3 and name[0] == "a":
            a = band_word(int(name[1]), int(name[2]))
            out += (a if e > 0 else inverse_word(a)) * abs(e)
        else:
            raise CheckFailed(f"unexpected token {token!r}")
    return out


def structure(B, kind: str, n: int):
    return B.artin_structure(n) if kind == STANDARD else B.dual_structure(n)


def garside_norm(kind: str, n: int) -> int:
    return n * (n - 1) // 2 if kind == STANDARD else n - 1


def no_partner(rng: random.Random, n: int, x, length: int) -> list[tuple[int, int]]:
    """A random word with the algebraic length of x, proven not conjugate to x."""
    e = oracle.algebraic_length(x)
    while True:
        z = random_artin(rng, n, length)
        # fix the exponent sum by appending letters of one sign
        d = e - oracle.algebraic_length(z)
        z += [(rng.randrange(1, n), 1 if d > 0 else -1) for _ in range(abs(d))]
        if provably_not_conjugate(n, x, z):
            return z


def cli_call(B, argv: list[str]) -> tuple[int, Any]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = B.cli.main(argv)
    text = out.getvalue()
    return code, json.loads(text) if code == 0 and text else None


# ----- conjugacy --------------------------------------------------------

# (strands, word length, number of classes); drawn once from POOL_SEED.
CONJUGACY_POOL = ((4, 8, 6), (5, 6, 1))
CONJUGATOR_LENGTH = 4


def conjugacy_pool() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(POOL_SEED)
    return [
        (n, random_artin(rng, n, length))
        for n, length, count in CONJUGACY_POOL
        for _ in range(count)
    ]


def check_sc(B, kind, n, x_art, sc, other=None) -> None:
    """Witnesses conjugate correctly; SC is closed under sliding with constant (inf, sup)."""
    require(len(sc.elements) > 0, "empty sliding-circuits set")
    infsup = {(z.inf, z.sup) for z in sc.elements}
    require(len(infsup) == 1, "inf/sup not constant on SC")
    for z, w in sc.elements.items():
        require(B.cyclic_sliding(z) in sc.elements, "SC not closed under cyclic sliding")
        require(
            conjugates_to(n, x_art, nf_artin(kind, n, w), nf_artin(kind, n, z)),
            "SC witness does not conjugate the input onto its element",
        )
    for arrow in sc.arrows:
        require(arrow.source in sc.elements and arrow.target in sc.elements, "arrow leaves SC")
        require(
            conjugates_to(
                n,
                nf_artin(kind, n, arrow.source),
                simple_artin(kind, n, arrow.conjugator),
                nf_artin(kind, n, arrow.target),
            ),
            "arrow conjugator is wrong",
        )
    if other is not None:
        require(set(sc.elements) == set(other.elements), "SC(x) != SC(c^-1 x c)")


def conjugacy_round(B, pool, seed: int, index: int) -> list[Op]:
    rng = random.Random(f"conjugacy:{seed}:{index}")
    ops: list[Op] = []
    for n, base in pool:
        x = conjugate_word(random_artin(rng, n, CONJUGATOR_LENGTH), base)
        y = conjugate_word(random_artin(rng, n, CONJUGATOR_LENGTH), x)
        z = no_partner(rng, n, x, len(base))
        # the reverse word: conjugate to x or not, the benchmark does not decide
        r = conjugate_word(random_artin(rng, n, CONJUGATOR_LENGTH), x[::-1])
        verdicts: dict[str, bool] = {}
        for kind in KINDS:
            ops += conjugacy_ops(B, kind, n, x, y, z, r, verdicts)
    return ops


def conjugacy_ops(B, kind, n, x, y, z, r, verdicts) -> list[Op]:
    st = structure(B, kind, n)
    xn, yn, zn, rn = (st.nf_from_word(to_program_word(B, kind, n, w)) for w in (x, y, z, r))
    sc_x: list = []

    def check_sc_x(sc):
        check_sc(B, kind, n, x, sc)
        sc_x.append(sc)

    def check_sc_y(sc):
        check_sc(B, kind, n, y, sc, sc_x[0])

    def check_yes(result):
        ok, c = result
        require(ok is True and c is not None, "conjugate pair reported not conjugate")
        require(conjugates_to(n, x, nf_artin(kind, n, c), y), "conjugator is wrong")

    def check_no(result):
        require(result == (False, None), "non-conjugate pair reported conjugate")

    def check_open(result):
        # no verdict is expected; the two structures must give the same one
        ok, c = result
        require(ok == (c is not None), "conjugator presence disagrees with verdict")
        if ok:
            require(conjugates_to(n, x, nf_artin(kind, n, c), r), "conjugator is wrong")
        other = verdicts.setdefault("open", ok)
        require(other == ok, "standard and dual structures disagree on conjugacy")

    label = f"{kind}{n}"
    return [
        Op(f"sc.{label}", lambda: B.sliding_circuits(xn), check_sc_x),
        Op(f"sc.{label}", lambda: B.sliding_circuits(yn), check_sc_y),
        Op(f"yes.{label}", lambda: B.are_conjugate(xn, yn), check_yes),
        Op(f"no.{label}", lambda: B.are_conjugate(xn, zn), check_no),
        Op(f"open.{label}", lambda: B.are_conjugate(xn, rn), check_open),
    ]


# ----- recognize --------------------------------------------------------

BRANCHES = ("power", "filter", "orbit", "sc", "conjugacy")


@dataclass
class Query:
    """A pool entry: an Artin word, the query exponents and the known verdict."""

    n: int
    word: list[tuple[int, int]]
    k: int
    l: int | None
    expected: bool | None  # None: not known from how the entry was built
    kinds: tuple[str, ...] = KINDS
    branch: dict | None = None
    qp3: bool = False  # the verdict must agree with is_quasipositive_3braid


def product_of_conjugates(rng, n, k, l, conj_len):
    g1, g2 = random_artin(rng, n, conj_len), random_artin(rng, n, conj_len)
    xi, yi = rng.randrange(1, n), rng.randrange(1, n)
    return conjugate_word(g1, [(xi, 1)] * k) + conjugate_word(g2, [(yi, 1)] * l)


# strands -> conjugator length of the two-class entries with negative summit
NEGATIVE_CONJ = {3: 4, 4: 4, 5: 3, 6: 3}
# strands -> (YES entries off the conjugacy branch, NO entries the filter rejects)
NEGATIVE_QUOTA = {3: (2, 1), 4: (2, 1), 5: (1, 1), 6: (2, 1)}
MAX_DRAWS = 400
OPEN_ENTRIES = 4


def recognize_pool(B) -> list[Query]:
    """Pool entries, each classified by the branch it takes in each structure."""
    rng = random.Random(POOL_SEED + 1)
    pool: list[Query] = []

    def add(q: Query) -> None:
        q.branch = {kind: classify(B, q, kind) for kind in q.kinds}
        pool.append(q)

    for n in (3, 4, 5, 6):
        kinds = KINDS if n < 6 else (DUAL,)
        # single class: a conjugate of sigma_i^k, and one with exponent k + 1
        for expected in (True, False):
            k = rng.randint(1, 3)
            g = random_artin(rng, n, 4)
            w = conjugate_word(g, [(rng.randrange(1, n), 1)] * (k + (0 if expected else 1)))
            add(Query(n, w, k, None, expected, kinds))
        if n < 6:
            # two classes, conjugate of a positive product: the conjugacy branch
            for expected in (True, False):
                k, l = rng.randint(1, 2), rng.randint(1, 2)
                g = random_artin(rng, n, 2)
                pos = [(rng.randrange(1, n), 1)] * k + [(rng.randrange(1, n), 1)] * (l + (0 if expected else 1))
                add(Query(n, conjugate_word(g, pos), k, l, expected, kinds))
        # two classes, product of independent conjugates with negative summit:
        # the orbit walk (dual), the SC search (standard) or the filter.  Dual
        # Br_6 keeps only entries that never enumerate sliding circuits.
        yes, no = NEGATIVE_QUOTA[n]
        quota = {"yes": yes, "filter": no}
        for _ in range(MAX_DRAWS):
            if not any(quota.values()):
                break
            expected = rng.random() < 0.5
            k, l = rng.randint(1, 2), rng.randint(1, 2)
            w = product_of_conjugates(rng, n, k, l + (0 if expected else 1), NEGATIVE_CONJ[n])
            q = Query(n, w, k, l, expected, kinds)
            branches = {classify(B, q, kind) for kind in kinds}
            if "conjugacy" in branches:
                continue
            bucket = "yes" if expected else ("filter" if branches == {"filter"} else None)
            if quota.get(bucket):
                quota[bucket] -= 1
                add(q)
    # Br_3 words of algebraic length 1 and 2: the verdict must agree with qp3
    for e in (1, 1, 2, 2, 2):
        while True:
            w = random_artin(rng, 3, 8 - e % 2)  # a word's length has the parity of e
            if oracle.algebraic_length(w) == e:
                break
        add(Query(3, w, 1, None if e == 1 else 1, None, qp3=True))
    # Br_4 words of algebraic length k + l, verdict not known: the standard
    # and dual structures must agree on it
    for _ in range(OPEN_ENTRIES):
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        while True:
            w = random_artin(rng, 4, 8 + (k + l) % 2)
            if oracle.algebraic_length(w) == k + l:
                break
        add(Query(4, w, k, l, None))
    return pool


def classify(B, q: Query, kind: str) -> str:
    """The recognizer branch a query takes; a class invariant, fixed per pool entry."""
    if q.l is None:
        return "power"
    st = structure(B, kind, q.n)
    query = make_query(B, st, q)
    xt, _ = B.slide_to_circuit(st.nf_from_word(to_program_word(B, kind, q.n, q.word)))
    if xt.p >= 0:
        return "conjugacy"
    if B.summit_length_filter(xt, query) is False:
        return "filter"
    return "orbit" if kind == DUAL else "sc"


def make_query(B, st, q: Query):
    x = atom_index_of_artin(st.ident.kind.value, q.n, 1)
    return B.RecognitionQuery(st.ident, x, q.k, None if q.l is None else x, q.l)


def check_witness(B, kind, n, st, x_art, w, q: Query) -> None:
    """The witness conjugates the input onto its element, which has the claimed shape."""
    require(
        conjugates_to(n, x_art, nf_artin(kind, n, w.conjugator), nf_artin(kind, n, w.element)),
        "witness conjugator is wrong",
    )
    require(w.k == q.k and w.l == (q.l or 0), "witness exponents differ from the query")
    require(w.x1 in st.atom_index and (q.l is None) == (w.y1 is None), "witness atoms")
    shape = garside_word(kind, n, -w.n)
    for a in reversed(w.a_factors):
        shape += simple_artin(kind, n, a)
    shape += simple_artin(kind, n, w.x1) * w.k
    for b in w.b_factors:
        shape += simple_artin(kind, n, b)
    if w.y1 is not None:
        require(w.y1 in st.atom_index, "witness y1 is not an atom")
        shape += simple_artin(kind, n, w.y1) * w.l
    require(same_element(n, shape, nf_artin(kind, n, w.element)), "witness factors do not multiply to its element")


def recognize_round(B, pool: list[Query], seed: int, index: int) -> list[Op]:
    rng = random.Random(f"recognize:{seed}:{index}")
    ops = []
    for q in pool:
        x = conjugate_word(random_artin(rng, q.n, 2), q.word)
        verdicts: dict[str, bool] = {}
        for kind in q.kinds:
            ops.append(recognize_op(B, kind, q, x, verdicts))
    return ops


def recognize_op(B, kind, q: Query, x, verdicts) -> Op:
    n = q.n
    st = structure(B, kind, n)
    xn = st.nf_from_word(to_program_word(B, kind, n, x))
    query = make_query(B, st, q)

    def call():
        res = B.recognize(xn, query)
        return res, res.witness is not None and B.verify_witness(xn, res.witness)

    def check(result):
        res, verified = result
        expected = q.expected
        if q.qp3:
            expected = B.is_quasipositive_3braid(to_program_word(B, STANDARD, 3, x))
        if expected is not None:
            require(res.verdict == expected, f"recognize verdict {res.verdict}, expected {expected}")
        require(res.verdict == (res.witness is not None), "witness presence disagrees with verdict")
        if res.verdict:
            require(verified, "verify_witness rejected the witness")
            check_witness(B, kind, n, st, x, res.witness, q)
        other = verdicts.setdefault("v", res.verdict)
        require(other == res.verdict, "standard and dual structures disagree on recognize")

    return Op(q.branch[kind], call, check)


# ----- kernels ----------------------------------------------------------

KERNEL_STRANDS = range(3, 9)
KERNEL_LENGTH = {STANDARD: 48, DUAL: 32}
CRASH_CALLS = (
    ["invariants", "-n", "4", "--json", "D^-3000 1"],
    ["orbit", "-n", "4", "--json", "D^-3000 1"],
)


def random_letters(rng, kind, n, length):
    atoms = n - 1 if kind == STANDARD else n * (n - 1) // 2
    return tuple((rng.randrange(atoms), rng.choice((1, -1))) for _ in range(length))


def kernel_ops(B, rng, kind, n) -> list[Op]:
    """Normal-form operations on fresh words.  The inputs of the later
    operations are the outputs of the timed nf_from_word calls, and the
    checks read normal forms with the benchmark's own spelling, so no
    program work on them happens untimed (it would warm the caches)."""
    st = structure(B, kind, n)
    length = KERNEL_LENGTH[kind]
    lx, ly, lc = (random_letters(rng, kind, n, length) for _ in range(3))
    ax, ay, ac = (letters_artin(kind, n, w) for w in (lx, ly, lc))
    wx, wy, wc = (B.BraidWord(st.ident, 0, w) for w in (lx, ly, lc))
    text = band_text(kind, n, lx)
    fx = oracle.Fingerprint(n, ax)
    nf: dict[str, Any] = {}

    def art(v):
        return nf_artin(kind, n, v)

    def check_nf(key, a):
        def check(v):
            require(oracle.Fingerprint(n, a) == oracle.Fingerprint(n, art(v)), "nf_from_word/nf_to_word changed the element")
            nf[key] = v

        return check

    def check_mul(v):
        require(fx.copy().apply(ay) == oracle.Fingerprint(n, art(v)), "nf_multiply is wrong")

    def check_inv(v):
        require(fx.copy().apply(art(v)).is_identity(), "nf_inverse is wrong")

    def check_conj(v):
        require(fx.copy().apply(ac) == oracle.Fingerprint(n, ac + art(v)), "nf_conjugate is wrong")

    def check_word(w):
        require(fx == oracle.Fingerprint(n, program_word_to_artin(kind, n, w)), "nf_to_word is wrong")

    def round_trip():
        w = B.parse_word(text, st.ident)
        return w, B.parse_word(B.word_to_text(w), st.ident)

    def check_text(result):
        w, again = result
        require(w == wx, "parse_word misread benchmark text")
        require(again == w, "parse_word(word_to_text(w)) != w")

    label = f"{kind}{n}"
    return [
        Op(f"nf_from_word.{label}", lambda: st.nf_from_word(wx), check_nf("x", ax)),
        Op(f"nf_from_word.{label}", lambda: st.nf_from_word(wy), check_nf("y", ay)),
        Op(f"nf_from_word.{label}", lambda: st.nf_from_word(wc), check_nf("c", ac)),
        Op(f"nf_multiply.{label}", lambda: st.nf_multiply(nf["x"], nf["y"]), check_mul),
        Op(f"nf_inverse.{label}", lambda: st.nf_inverse(nf["x"]), check_inv),
        Op(f"nf_conjugate.{label}", lambda: st.nf_conjugate(nf["x"], nf["c"]), check_conj),
        Op(f"nf_to_word.{label}", lambda: st.nf_to_word(nf["x"]), check_word),
        Op(f"words.{label}", round_trip, check_text),
    ]


def qp3_ops(B, rng) -> list[Op]:
    st = B.artin_structure(3)
    ops = []
    cases = []
    for m in (1, 2, 3, 4):  # products of conjugates of sigma_i: quasipositive
        w = []
        for _ in range(m):
            w += conjugate_word(random_artin(rng, 3, rng.randint(2, 6)), [(rng.randint(1, 2), 1)])
        cases.append((w, True))
    for _ in range(2):  # negative algebraic length: not quasipositive
        w = random_artin(rng, 3, 14)
        w += [(rng.randint(1, 2), -1)] * (oracle.algebraic_length(w) + 1 if oracle.algebraic_length(w) >= 0 else 0)
        cases.append((w, False))
    for w, expected in cases:
        word = to_program_word(B, STANDARD, 3, w)

        def check(v, expected=expected):
            require(v is expected, "is_quasipositive_3braid verdict is wrong")

        ops.append(Op("qp3.random", lambda word=word: B.is_quasipositive_3braid(word), check))
    for _ in range(2):  # D^q sigma_1^-m against the closed form
        q, m = rng.randint(-2, 6), rng.randint(0, 14)
        word = B.BraidWord(st.ident, q, ((0, -1),) * m)

        def check(v, q=q, m=m):
            require(v is B.qp_half_twist_power(q, m), "qp3 disagrees with qp_half_twist_power")

        ops.append(Op("qp3.half_twist", lambda word=word: B.is_quasipositive_3braid(word), check))
    return ops


def cli_ops(B, rng) -> list[Op]:
    ops = []
    for kind, n in ((STANDARD, 5), (DUAL, 5)):
        letters = random_letters(rng, kind, n, 12)
        art = letters_artin(kind, n, letters)
        argv = ["nf", "-n", str(n), "--structure", kind, "--json", band_text(kind, n, letters)]

        def check_nf(r, kind=kind, n=n, art=art):
            code, out = r
            require(code == 0, "nf exited non-zero")
            require(same_element(n, art, parse_output_text(kind, n, out["word"])), "cli nf word is wrong")
            require(out["sup"] == out["inf"] + out["canonical_length"], "cli nf inf/sup")

        ops.append(Op("cli.nf", lambda argv=argv: cli_call(B, argv), check_nf))

    x = random_artin(rng, 4, 10)
    y = conjugate_word(random_artin(rng, 4, 3), x)
    seen: list = []
    for w in (x, y):
        argv = ["invariants", "-n", "4", "--json", artin_text(4, w)]

        def check_inv(r, w=w):
            code, out = r
            require(code == 0, "invariants exited non-zero")
            inf, ell, sup = out["inf_s"], out["ell_s"], out["sup_s"]
            e, d = oracle.algebraic_length(w), garside_norm(STANDARD, 4)
            require(sup == inf + ell and ell >= 0, "summit inf/sup/length inconsistent")
            require(inf * d <= e <= sup * d and (ell > 0 or e == inf * d), "summit bounds the algebraic length")
            seen.append((inf, ell, sup))
            require(seen[0] == seen[-1], "summit invariants differ on a conjugate")

        ops.append(Op("cli.invariants", lambda argv=argv: cli_call(B, argv), check_inv))

    w = []
    for _ in range(3):
        w += conjugate_word(random_artin(rng, 3, 3), [(rng.randint(1, 2), 1)])
    argv = ["qp3", "--json", artin_text(3, w)]

    def check_qp3(r, w=w):
        code, out = r
        require(code == 0 and out["verdict"] is True, "cli qp3 verdict is wrong")
        require(out["e"] == oracle.algebraic_length(w), "cli qp3 algebraic length")

    ops.append(Op("cli.qp3", lambda argv=argv: cli_call(B, argv), check_qp3))

    u = random_artin(rng, 3, 8)
    c = random_artin(rng, 3, 3)
    v = conjugate_word(c, u)
    argv_c = ["conjugate", "-n", "3", "--json", artin_text(3, u), artin_text(3, v)]

    def check_conjugate(r):
        code, out = r
        require(code == 0 and out["verdict"] is True, "cli conjugate verdict is wrong")
        conj = parse_output_text(STANDARD, 3, out["conjugator"])
        require(conjugates_to(3, u, conj, v), "cli conjugator is wrong")

    ops.append(Op("cli.conjugate", lambda: cli_call(B, argv_c), check_conjugate))

    for argv in CRASH_CALLS:
        # Delta^-3000 sigma_1: after the fault is mended these must succeed.
        def check_crash(r, sub=argv[0]):
            code, out = r
            require(code == 0, f"{sub} exited {code}")
            if sub == "invariants":
                require((out["inf_s"], out["ell_s"], out["sup_s"]) == (-3000, 1, -2999), "invariants of D^-3000 1")
            else:
                require(out["cycling_orbit"] >= 1 and out["decycling_orbit"] >= 1, "orbit of D^-3000 1")

        ops.append(Op(f"cli.{argv[0]}.deep", lambda argv=argv: cli_call(B, argv), check_crash))
    return ops


def kernels_round(B, seed: int, index: int) -> list[Op]:
    rng = random.Random(f"kernels:{seed}:{index}")
    ops = []
    for n in KERNEL_STRANDS:
        for kind in KINDS:
            ops += kernel_ops(B, rng, kind, n)
    ops += qp3_ops(B, rng)
    ops += cli_ops(B, rng)
    return ops


# ----- workload table ---------------------------------------------------


@dataclass
class Workload:
    structures: tuple[tuple[str, int], ...]  # built during set-up
    sc_structures: tuple[tuple[str, int], ...]  # whose all_simples set-up builds
    prepare: Callable[[Any], Any]  # benchmark-side pool preparation (untimed)
    round: Callable[[Any, Any, int, int], list[Op]]
    round_s: float  # timed seconds of one round, measured at the reference commit


def rounds_for(wl: Workload, seconds: float) -> int:
    """The fixed number of rounds that fills about ``seconds`` of timed work.

    It depends on the arguments only, not on the clock: a faster program
    runs the same batch in less time.
    """
    return max(1, round(seconds / wl.round_s))


def _both(ns):
    return tuple((kind, n) for n in ns for kind in KINDS)


WORKLOADS = {
    "conjugacy": Workload(
        _both((4, 5)),
        _both((4, 5)),
        lambda B: conjugacy_pool(),
        conjugacy_round,
        4.9,
    ),
    "recognize": Workload(
        _both((3, 4, 5)) + ((DUAL, 6),),
        _both((3, 4, 5)),
        recognize_pool,
        recognize_round,
        1.42,
    ),
    "kernels": Workload(
        _both(KERNEL_STRANDS),
        ((STANDARD, 3),),
        lambda B: None,
        lambda B, pool, seed, index: kernels_round(B, seed, index),
        0.53,
    ),
}
