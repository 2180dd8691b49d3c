"""Per-layer tracing from outside the program.

Public functions are wrapped where they are looked up: every ``braidqp``
module attribute that is the original function is replaced, so both
``braidqp.conjugacy.slide_to_circuit`` and ``braidqp.recognition.slide_to_circuit``
record a span.  A span has a name, a parent and start/end times; spans of
one timed operation are kept in memory and folded into per-name totals when
the operation ends, with self time = duration minus the children's
durations.  The hot primitives are not wrapped: their call and hit counts
come from ``cache_info()`` of the memoized methods, as the difference from
before to after each traced operation.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that record a span: those the per-layer metrics read
SPANS = (
    ("conjugacy", "slide_to_circuit"),
    ("conjugacy", "sliding_circuits"),
    ("conjugacy", "min_sc_conjugator"),
    ("conjugacy", "in_sliding_circuit"),
    ("conjugacy", "are_conjugate"),
    ("recognition", "_conjugacy_branch"),
    ("recognition", "match_product_form"),
    ("recognition", "verify_witness"),
    ("qp3", "to_pa_form"),
    ("qp3", "qp3"),
    ("words", "parse_word"),
    ("words", "word_to_text"),
)
# GarsideStructure methods: with a span, or counted only (too hot for spans)
METHOD_SPANS = ("nf_conjugate_by_simple",)
METHOD_COUNTS = ("nf_multiply", "nf_inverse")


def cache_snapshot(structures) -> dict[str, list[int]]:
    """Summed (hits, misses, entries) of every memo cache of the structures."""
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    seen: set[int] = set()
    for st in structures:
        holders = [vars(st)] + [vars(cls) for cls in type(st).__mro__]
        for holder in holders:
            for name, value in list(holder.items()):
                info = getattr(value, "cache_info", None)
                if info is None or id(value) in seen:
                    continue
                seen.add(id(value))
                i = info()
                acc = out[name]
                acc[0] += i.hits
                acc[1] += i.misses
                acc[2] += i.currsize
    return out


class Tracer:
    """Spans and cache counts of the operations run between begin_op and end_op."""

    def __init__(self, B, structures) -> None:
        self.B = B
        self.structures = structures
        self.cache_delta: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._before: dict[str, list[int]] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.count: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.sc_elements = 0
        self.sc_arrows = 0
        self.targets_slid = 0
        self._patches: list[tuple[object, str, object]] = []

    # ----- wrappers -----------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (parent, name, start, end)
            if name == "conjugacy.sliding_circuits":
                self.sc_elements += len(result.elements)
                self.sc_arrows += len(result.arrows)
            return result

        return wrapper

    def _counter(self, name, fn):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_op(self) -> None:
        self._before = cache_snapshot(self.structures)
        self.install()

    def end_op(self) -> None:
        """Unwrap, fold the operation's spans into per-name totals, count cache use."""
        self.uninstall()
        self._fold_spans()
        for name, (hits, misses, _) in cache_snapshot(self.structures).items():
            h0, m0, _ = self._before.get(name, (0, 0, 0))
            acc = self.cache_delta[name]
            acc[0] += hits - h0
            acc[1] += misses - m0

    def install(self) -> None:
        B = self.B
        modules = [m for k, m in sys.modules.items() if k == "braidqp" or k.startswith("braidqp.")]
        for mod, fname in SPANS:
            original = getattr(sys.modules[f"braidqp.{mod}"], fname)
            wrapper = self._span(f"{mod}.{fname}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        cls = B.GarsideStructure
        for fname in METHOD_SPANS + METHOD_COUNTS:
            original = vars(cls)[fname]
            make = self._span if fname in METHOD_SPANS else self._counter
            self._patch(cls, fname, make(f"core.{fname}", original))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- aggregation --------------------------------------------------

    def _fold_spans(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (parent, name, start, end) in enumerate(spans):
            dur = end - start
            self.count[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child[sid]
            if (
                name == "conjugacy.slide_to_circuit"
                and parent >= 0
                and spans[parent][1] == "recognition._conjugacy_branch"
            ):
                self.targets_slid += 1
        spans.clear()
        self.stack.clear()
