"""Time one sliding-circuits enumeration on Br_n, in a child process.

    python3 tools/sc_scaling.py --structure standard -n 8
    python3 tools/sc_scaling.py --structure dual -n 9

The word is fixed by n: the alternating generators ``1 -2 3 -4 ...`` up to
``+-(n-1)``, then ``1 2 -3`` (in Br_8: ``1 -2 3 -4 5 -6 7 1 2 -3``).  The
child limits its own address space to MEMORY_MB and is stopped after
TIMEOUT_S seconds.  One JSON line is printed: the status (``ok``,
``timeout``, ``out of memory`` or ``failed``) and, when it finished, the
enumeration time, the number of elements and arrows and the child's peak
RSS.  ``--src`` imports braidqp from another source tree, so that two
checkouts can be compared on the same machine.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_S = 180.0
MEMORY_MB = 2048


def word_for(n: int) -> str:
    alternating = [str(i if i % 2 else -i) for i in range(1, n)]
    return " ".join(alternating + ["1", "2", "-3"])


def child(src: str, structure: str, n: int) -> dict:
    limit = MEMORY_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, src)
    from braidqp import artin_structure, dual_structure, parse_word, sliding_circuits

    st = (artin_structure if structure == "standard" else dual_structure)(n)
    x = st.nf_from_word(parse_word(word_for(n), st.ident))
    start = time.perf_counter()
    try:
        sc = sliding_circuits(x)
    except MemoryError:
        return {"status": "out of memory"}
    return {
        "status": "ok",
        "seconds": round(time.perf_counter() - start, 3),
        "elements": len(sc),
        "arrows": len(sc.arrows),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


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
        print(json.dumps(child(args.src, args.structure, args.n)))
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
    except subprocess.TimeoutExpired:
        record["status"] = "timeout"
    else:
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            record.update(json.loads(lines[-1]))
        elif "MemoryError" in done.stderr:
            record["status"] = "out of memory"
        else:
            record["status"] = "failed"
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
