"""Interleaved A/B timing of two braidqp source trees in one process.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload kernels --seed 7

Each tree's ``src/braidqp`` is imported under its own package name, and the
parent tree a second time as a control.  One workload's rounds from
``bench/workloads.py`` run on all three: every operation runs once on each
tree, in an order that cycles through all six from one operation to the
next, and is timed on its own and checked with the clock stopped.  With the
clock stopped too, each result is normalised and compared with the parent's,
so a change meant to keep every answer shows any one it does not keep.  The
number of rounds is the benchmark's at its default run length.  Runs on one
machine drift by more than most changes move, but the three trees here
share every moment of it, so the control / parent ratio is the noise floor
and a change / parent ratio inside it is no change.

One JSON line is printed: the total op time of each tree; the change /
parent and control / parent ratios of it, in total and per label (the
operation label up to its first dot); the failed operations of each tree;
the calls, misses and entries of the ``local_sliding``, ``tau``,
``complement`` and ``is_prefix`` memos, which repeat exactly from run to
run, so a change that saves lattice calls shows as an exact count; and,
per tree, ``outputs_differ``: the operations whose normalised result
differs from the parent's, with the first few of their labels.  The
control must read 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import importlib
import importlib.util
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402  (the benchmark's modules sit in bench/)
from tracing import cache_snapshot  # noqa: E402
from workloads import KINDS, WORKLOADS, rounds_for, structure  # noqa: E402

TREES = ("parent", "control", "change")
ORDERS = tuple(itertools.permutations(TREES))  # each tree in each place and after each other
COUNTED = ("local_sliding", "tau", "complement", "is_prefix")
SHOWN_LABELS = 5  # differing labels printed per tree


def normalise(value):
    """A result in a form that does not depend on the tree that made it.

    A NormalForm becomes (p, factors), a dataclass its fields, an enum its
    value and a raised exception (type name, message); containers are
    normalised item by item, keeping their order.
    """
    if isinstance(value, BaseException):
        return type(value).__name__, str(value)
    if isinstance(value, enum.Enum):
        return value.value
    if type(value).__name__ == "NormalForm":
        return value.p, value.factors
    if dataclasses.is_dataclass(value):
        return tuple(normalise(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((normalise(k), normalise(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(normalise(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no normal form for a {type(value).__name__} result")


def load(tree: Path, name: str):
    """Import ``tree/src/braidqp`` and its CLI as the package ``name``."""
    pkg = tree / "src" / "braidqp"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def compare(parent: Path, change: Path, workload: str, seed: int) -> dict:
    wl = WORKLOADS[workload]
    programs = {t: load(path, f"braidqp_{t}") for t, path in zip(TREES, (parent, parent, change))}
    for B in programs.values():
        for kind, n in wl.structures:
            structure(B, kind, n)
    pools = {t: wl.prepare(B) for t, B in programs.items()}
    rounds = rounds_for(wl, bench.DEFAULT_SECONDS)
    total = dict.fromkeys(TREES, 0.0)
    failed = dict.fromkeys(TREES, 0)
    differ: dict[str, list[str]] = {t: [] for t in TREES[1:]}
    by_label: dict[str, dict[str, float]] = {}
    orders = itertools.cycle(ORDERS)
    for index in range(rounds):
        ops = {t: wl.round(B, pools[t], seed, index) for t, B in programs.items()}
        gc.collect()
        for k, first in enumerate(ops["parent"]):
            spent = by_label.setdefault(first.label.split(".")[0], dict.fromkeys(TREES, 0.0))
            outputs = {}
            for tree in next(orders):
                op = ops[tree][k]
                ok, result, dt = bench.timed_call(op, None)
                total[tree] += dt
                spent[tree] += dt
                outputs[tree] = normalise(result)
                if ok:
                    try:
                        op.check(result)
                    except Exception:  # CheckFailed, or output of the wrong shape
                        ok = False
                failed[tree] += not ok
            for tree, labels in differ.items():
                if outputs[tree] != outputs["parent"]:
                    labels.append(first.label)
    # every structure an op could have built; one it never built comes back with empty memos
    strands = range(2, max(n for _, n in wl.structures) + 1)
    counts = {}
    for tree, B in programs.items():
        snapshot = cache_snapshot([structure(B, kind, n) for kind in KINDS for n in strands])
        counts[tree] = {}
        for name in COUNTED:
            hits, misses, entries = snapshot[name]
            counts[tree][name] = {"calls": hits + misses, "misses": misses, "entries": entries}

    def ratios(times: dict[str, float]) -> dict[str, float]:
        return {t: round(times[t] / times["parent"], 4) for t in ("change", "control")}

    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "total_s": {t: round(v, 4) for t, v in total.items()},
        "ratio": ratios(total),
        "by_label": {label: ratios(v) for label, v in sorted(by_label.items())},
        "failed": failed,
        "outputs_differ": {t: len(labels) for t, labels in differ.items()},
        "differ_labels": {t: labels[:SHOWN_LABELS] for t, labels in differ.items()},
        "counts": counts,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree holding src/braidqp")
    parser.add_argument("change", type=Path, help="source tree holding src/braidqp")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    args = parser.parse_args(argv)
    print(json.dumps(compare(args.parent, args.change, args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
