"""Time a sliding-circuits enumeration and positive-summit queries on Br_n, in a child process.

    python3 tools/sc_scaling.py --structure standard -n 8
    python3 tools/sc_scaling.py --structure dual -n 9

The word is fixed by n: the alternating generators ``1 -2 3 -4 ...`` up to
``+-(n-1)``, then ``1 2 -3`` (in Br_8: ``1 -2 3 -4 5 -6 7 1 2 -3``).  After
``sc`` on it, the child times positive-summit ``recognize`` queries at
(k, l) = (2, 1) on the same n and structure, from a fixed seed: 8 YES
queries, each x_i^2 x_j conjugated by a random 6-letter positive word, and 8
NO queries, each a random positive 3-letter word conjugated the same way
whose permutation is not a transposition (x_i^2 x_j permutes the strands
as x_j, a transposition, and the permutation is a conjugacy invariant).
The child limits its own address space to MEMORY_MB and is stopped after
TIMEOUT_S seconds.  One JSON line is printed: the status (``ok``,
``timeout``, ``out of memory`` or ``failed``) and, when it finished, the
enumeration time, the number of elements and arrows, the child's peak RSS
and, under ``recognize``, the median and largest YES time and the median,
largest and total NO time, in ms.  A run stopped after the enumeration
keeps its figures.  ``--src`` imports braidqp from another source tree, so
that two checkouts can be compared on the same machine.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_S = 180.0
MEMORY_MB = 2048
QUERY_SEED = 8


def word_for(n: int) -> str:
    alternating = [str(i if i % 2 else -i) for i in range(1, n)]
    return " ".join(alternating + ["1", "2", "-3"])


def queries(B, st):
    """The fixed-seed YES and NO positive-summit queries at (k, l) = (2, 1)."""
    rng = random.Random(QUERY_SEED)
    m = len(st.atoms)

    def conjugated(atoms):
        x = st.nf_from_word(B.BraidWord(st.ident, 0, tuple((a, 1) for a in atoms)))
        c = tuple((rng.randrange(m), 1) for _ in range(6))
        return st.nf_conjugate(x, st.nf_from_word(B.BraidWord(st.ident, 0, c)))

    yes, no = [], []
    while len(yes) < 8:
        i, j = rng.randrange(m), rng.randrange(m)
        yes.append(conjugated((i, i, j)))
    while len(no) < 8:
        atoms = [rng.randrange(m) for _ in range(3)]
        perm = st.identity
        for a in atoms:
            perm = B.mult(perm, st.atoms[a])
        if sum(i != p for i, p in enumerate(perm)) != 2:
            no.append(conjugated(atoms))
    return yes, no


def peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def child(src: str, structure: str, n: int) -> None:
    """Print the enumeration's line, then the queries' line; a MemoryError
    ends the child with its traceback on stderr."""
    limit = MEMORY_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, src)
    import braidqp as B

    st = (B.artin_structure if structure == "standard" else B.dual_structure)(n)
    x = st.nf_from_word(B.parse_word(word_for(n), st.ident))
    start = time.perf_counter()
    sc = B.sliding_circuits(x)
    seconds = round(time.perf_counter() - start, 3)
    print(json.dumps({
        "seconds": seconds, "elements": len(sc), "arrows": len(sc.arrows),
        "peak_rss_mb": peak_rss_mb(),
    }), flush=True)
    q = B.RecognitionQuery(st.ident, 0, 2, 0, 1)
    ms: dict[bool, list[float]] = {True: [], False: []}
    for answer, xs in zip((True, False), queries(B, st)):
        for x in xs:
            start = time.perf_counter()
            verdict = B.recognize(x, q).verdict
            ms[answer].append(1000 * (time.perf_counter() - start))
            assert verdict is answer
    yes, no = ms[True], ms[False]
    print(json.dumps({"status": "ok", "recognize": {
        "yes_median_ms": round(statistics.median(yes), 2),
        "yes_max_ms": round(max(yes), 2),
        "no_median_ms": round(statistics.median(no), 2),
        "no_max_ms": round(max(no), 2),
        "no_total_ms": round(sum(no), 2),
        "peak_rss_mb": peak_rss_mb(),
    }}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--structure", choices=("standard", "dual"), default="standard")
    parser.add_argument("-n", type=int, required=True, help="strands, at least 4")
    parser.add_argument("--src", default=str(SRC), help="source tree holding braidqp")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.n < 4:
        parser.error("the word needs at least 4 strands")
    if args.child:
        child(args.src, args.structure, args.n)
        return 0
    record = {
        "structure": args.structure,
        "n": args.n,
        "word": word_for(args.n),
        "timeout_s": TIMEOUT_S,
        "memory_mb": MEMORY_MB,
    }
    cmd = [sys.executable, __file__, "--child", "--structure", args.structure,
           "-n", str(args.n), "--src", args.src]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
        out, err, code = done.stdout, done.stderr, done.returncode
    except subprocess.TimeoutExpired as stopped:
        out, err, code = (stopped.stdout or b"").decode(), "", None
    for line in out.splitlines():
        record.update(json.loads(line))
    if code is None:
        record["status"] = "timeout"
    elif "MemoryError" in err:
        record["status"] = "out of memory"
    elif code != 0 or "status" not in record:
        record["status"] = "failed"
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
