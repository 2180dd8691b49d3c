"""Benchmark of braidqp: one workload per run, one JSON result on the last line.

    python3 bench/run.py --workload conjugacy --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
Set-up (importing braidqp and building the structures the workload uses)
is timed apart from the batch, SETUP_REPEATS times before it and as many
times after it.  Between them runs a fixed batch of whole rounds of the
workload's operations.  Its size follows from ``--seconds`` and the
workload's reference round time, never from the clock, so a run does the
same work however fast the machine or the program is.  Every output is
checked; an operation that raises, or whose output fails a check, counts as
failed, and a failed check also makes ``correct`` false.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` odd rounds run with tracing and even rounds without; the
result holds the per-layer metrics, and a JSON file under ``.bench_out/``
also records the tracing overhead (traced against untraced rounds).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads  # the benchmark's own modules sit beside this file
from tracing import Tracer, cache_snapshot
from workloads import BRANCHES, CheckFailed, rounds_for, structure

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15  # before the batch, and as many again after it
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25

CLI_SUBCOMMANDS = ("nf", "invariants", "qp3", "conjugate")


def import_program():
    """Import braidqp afresh, dropping any earlier copy of its modules."""
    for name in [k for k in sys.modules if k == "braidqp" or k.startswith("braidqp.")]:
        del sys.modules[name]
    B = importlib.import_module("braidqp")
    importlib.import_module("braidqp.cli")
    return B


def set_up(wl, times: dict[str, list[float]]):
    """Import braidqp afresh and build the workload's structures; time each part."""
    gc.collect()
    t0 = perf_counter()
    B = import_program()
    t1 = perf_counter()
    built = [structure(B, kind, n) for kind, n in wl.structures]
    t2 = perf_counter()
    for kind, n in wl.sc_structures:
        structure(B, kind, n).all_simples
    t3 = perf_counter()
    times["setup_s"].append(t3 - t0)
    times["import.s"].append(t1 - t0)
    times["core.all_simples.s"].append(t3 - t2)
    return B, built


def smoothed_quantile(values: list[float], q: float, half_width: float = 0.05) -> float:
    """Mean of the values ranked within q +- half_width.

    With a fixed pool the latencies come in clusters, one per class; a plain
    order statistic jumps between neighbouring clusters as the number of
    rounds changes, while this mean moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = int((q - half_width) * n)
    hi = max(lo + 1, int((q + half_width) * n))
    return statistics.fmean(ordered[lo:hi])


def layer_metrics(tracer, entries, setup, rounds, ops_untraced):
    """Per-layer figures; counts and times are per traced round."""

    def calls(name):
        hits, misses = tracer.cache_delta.get(name, (0, 0))
        return (hits + misses) / rounds

    def ratio(name):
        hits, misses = tracer.cache_delta.get(name, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def p50(label):
        values = ops_untraced.get(label, [])
        return 1000 * statistics.median(values) if values else 0.0

    def throughput(label):
        values = ops_untraced.get(label, [])
        return len(values) / sum(values) if values else 0.0

    m = {
        "core.meet.calls": calls("meet"),
        "core.meet.hit_ratio": ratio("meet"),
        "core.local_sliding.calls": calls("local_sliding"),
        "core.local_sliding.hit_ratio": ratio("local_sliding"),
        "core.is_prefix.calls": calls("is_prefix"),
        "core.tau.calls": calls("tau"),
        "core.cache_entries": entries,
    }
    for name in ("core.nf_conjugate_by_simple", "core.nf_inverse", "core.nf_multiply",
                 "conjugacy.min_sc_conjugator", "conjugacy.in_sliding_circuit",
                 "recognition.match_product_form"):
        m[f"{name}.calls"] = tracer.count[name] / rounds
    for name in ("core.nf_conjugate_by_simple", "conjugacy.min_sc_conjugator",
                 "conjugacy.slide_to_circuit", "conjugacy.are_conjugate",
                 "recognition.verify_witness", "qp3.to_pa_form", "qp3.qp3",
                 "words.parse_word", "words.word_to_text"):
        m[f"{name}.self_s"] = tracer.self_s[name] / rounds
    tested = tracer.count["conjugacy.in_sliding_circuit"]
    m["conjugacy.sc_elements"] = tracer.sc_elements / rounds
    m["conjugacy.sc_arrows"] = tracer.sc_arrows / rounds
    m["conjugacy.arrow_yield"] = tracer.sc_arrows / tested if tested else 0.0
    for branch in BRANCHES:
        m[f"recognition.recognize.{branch}.ops"] = throughput(branch)
        m[f"recognition.recognize.{branch}.p50_ms"] = p50(branch)
    m["recognition.conjugacy.targets_slid"] = tracer.targets_slid / rounds
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.{sub}.p50_ms"] = p50(f"cli.{sub}")
    m["core.all_simples.s"] = setup["core.all_simples.s"]
    m["import.s"] = setup["import.s"]
    return m


UNITS = {"calls": "count/round", "self_s": "s/round", "hit_ratio": "ratio", "p50_ms": "ms",
         "ops": "1/s", "s": "s", "cache_entries": "count", "sc_elements": "count/round",
         "sc_arrows": "count/round", "arrow_yield": "ratio", "targets_slid": "count/round"}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def timed_call(op, tracer):
    """Run one operation, traced if a tracer is given: (ok, result or exception, seconds)."""
    if tracer is not None:
        tracer.begin_op()
    start = perf_counter()
    try:
        ok, result = True, op.call()
    except Exception as exc:  # a crash of the program is a failed operation
        ok, result = False, exc
    dt = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    return ok, result, dt


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    setup_times: dict[str, list[float]] = {"setup_s": [], "import.s": [], "core.all_simples.s": []}
    for _ in range(SETUP_REPEATS):
        B, built = set_up(wl, setup_times)
    pool = wl.prepare(B)
    tracer = Tracer(B, built) if args.trace else None
    durations: list[float] = []
    by_label: dict[str, list[float]] = {}
    round_time = {False: [], True: []}
    round_rate: list[float] = []
    attempted = failed = 0
    mismatches: list[str] = []
    timed = 0.0
    # a traced run needs an untraced and a traced round at least
    total_rounds = max(2 if args.trace else 1, rounds_for(wl, args.seconds))
    for index in range(total_rounds):
        ops = wl.round(B, pool, args.seed, index)
        traced = bool(args.trace) and index % 2 == 1
        gc.collect()
        spent = 0.0
        round_failed = 0
        for op in ops:
            attempted += 1
            ok, result, dt = timed_call(op, tracer if traced else None)
            spent += dt
            if not ok:
                failed += 1
                round_failed += 1
                if index == 0:
                    print(f"failed: {op.label}: {type(result).__name__}", file=sys.stderr)
                continue
            try:
                op.check(result)
            except Exception as exc:  # CheckFailed, or output of the wrong shape
                failed += 1
                round_failed += 1
                mismatches.append(f"{op.label}: {exc!r}")
                continue
            if not traced:
                durations.append(dt)
                by_label.setdefault(op.label, []).append(dt)
        round_time[traced].append(spent)
        if not traced:
            round_rate.append((len(ops) - round_failed) / spent)
        timed += spent

    for line in mismatches[:20]:
        print(f"mismatch: {line}", file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    entries = sum(v[2] for v in cache_snapshot(built).values())
    # more set-ups after the batch, so that the median spans the whole run
    for _ in range(SETUP_REPEATS):
        set_up(wl, setup_times)
    setup = {name: statistics.median(v) for name, v in setup_times.items()}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": total_rounds,
        "ops_per_round": attempted // total_rounds,
        "timed_s": timed,
    }
    if not args.trace:
        metrics = {
            "ops_per_s": ("1/s", statistics.median(round_rate)),
            "latency_p50_ms": ("ms", 1000 * smoothed_quantile(durations, 0.5)),
            "latency_p90_ms": ("ms", 1000 * smoothed_quantile(durations, 0.9)),
            "setup_s": ("s", setup["setup_s"]),
            "peak_rss_mb": ("MB", rss_mb),
        }
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}
        summary["timed_ops"] = len(durations)
        summary["p50_ms_by_label"] = {
            label: 1000 * statistics.median(v) for label, v in sorted(by_label.items())
        }
        out_name = f"run-{args.workload}-seed{args.seed}.json"
    else:
        traced_rounds = len(round_time[True])
        layer = layer_metrics(tracer, entries, setup, traced_rounds, by_label)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        untraced = statistics.mean(round_time[False])
        overhead = statistics.mean(round_time[True]) / untraced - 1
        summary["traced_rounds"] = traced_rounds
        summary["tracing_overhead"] = overhead
        summary["spans"] = {
            name: {"calls": tracer.count[name] / traced_rounds,
                   "total_s": tracer.total_s[name] / traced_rounds,
                   "self_s": tracer.self_s[name] / traced_rounds}
            for name in sorted(tracer.total_s)
        }
        print(f"tracing overhead: {100 * overhead:.1f}% of untraced round time", file=sys.stderr)
        out_name = f"trace-{args.workload}-seed{args.seed}.json"
    summary["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / out_name).write_text(json.dumps(summary, indent=2) + "\n")
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "braidqp" / "__init__.py").is_file():
        print(f"error: no braidqp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run(args)
    except CheckFailed:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
