"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` wraps each traced public function in every ``qra``
module namespace that binds it (``validate_homomorphism`` is bound in both
``qra.morphism`` and ``qra.represent``, for instance), and the cached
``Poset`` properties at class level; ``restore`` puts the originals back.
Each call records a span: name, start, end, parent span and the op it ran
under.  Spans stay in memory; ``write`` saves them once, at the end of a
run.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from functools import cached_property

# validate_dinfl takes the direct O(n^3) law checks up to 64 elements and
# the O(n^2) equivalent above; the two paths are timed apart.
DIRECT_CHECK_LIMIT = 64


def _validate_name(alg, *args, **kwargs):
    return "algebra.validate.le64" if alg.size <= DIRECT_CHECK_LIMIT else "algebra.validate.gt64"


def _add_len(counter):
    def hook(counts, result):
        counts[counter] += len(result)
    return hook


def _search_stats(counts, result):
    counts["search.nodes"] += result.stats.nodes
    counts["search.prunes"] += result.stats.prunes
    counts["search.leaves"] += result.stats.leaves
    counts["search.frames_kept"] += result.count


def _dq_elements(counts, result):
    counts["represent.build_dq.elements"] += result.algebra.size


def _hom_accepted(counts, result):
    counts["morphism.validate_homomorphism.accepted"] += int(result.ok)


# (module, attribute, span name or a function of the call's arguments, hook)
FUNCTIONS = (
    ("order", "all_posets", "order.all_posets", _add_len("order.all_posets.posets")),
    ("enumerate", "count_frames", "enumerate.count_frames", None),
    ("search", "enumerate_frames", "search.enumerate_frames", _search_stats),
    ("search", "run_branch", "search.run_branch", None),
    ("frame", "complex_algebra", "frame.complex_algebra", None),
    ("frame", "dual_frame", "frame.dual_frame", None),
    ("frame", "roundtrip_algebra", "frame.roundtrip_algebra", None),
    ("frame", "validate_frame", "frame.validate_frame", None),
    ("algebra", "validate_dinfl", _validate_name, None),
    ("algebra", "algebra_iso", "algebra.algebra_iso", None),
    ("algebra", "join_irreducibles", "algebra.join_irreducibles", None),
    ("filters", "filter_frame", "filters.filter_frame", None),
    ("filters", "filter_product", "filters.filter_product", None),
    ("filters", "gen_prime_filters", "filters.gen_prime_filters", None),
    ("filters", "space_algebra", "filters.space_algebra", None),
    ("filters", "priestley_roundtrip", "filters.priestley_roundtrip", None),
    ("catalog", "build_catalog", "catalog.build_catalog", None),
    ("catalog", "dqra_negations", "catalog.dqra_negations", None),
    ("ra", "closed_subsets", "ra.closed_subsets", _add_len("ra.closed_subsets.sets")),
    ("ra", "max_proper_qra_subreduct", "ra.max_proper_qra_subreduct", None),
    ("represent", "representation_search", "represent.representation_search", None),
    ("represent", "twist_order", "represent.twist_order", None),
    ("represent", "build_dq", "represent.build_dq", _dq_elements),
    ("represent", "embed_search", "represent.embed_search", None),
    ("represent", "verify_certificate", "represent.verify_certificate", None),
    ("morphism", "validate_homomorphism", "morphism.validate_homomorphism", _hom_accepted),
)

# cached properties of qra.order.Poset, wrapped at class level: a span is
# one computation, later reads hit the instance cache
POSET_PROPERTIES = ("canonical_key", "automorphisms", "order_reversing_bijections")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.op = "setup"
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            record = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qra" or key.startswith("qra.")]
        for module_name, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[f"qra.{module_name}"], attr)
            traced = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)
        poset = sys.modules["qra.order"].Poset
        for attr in POSET_PROPERTIES:
            original = poset.__dict__[attr]
            traced = cached_property(self._wrap(f"order.{attr}", original.func))
            traced.__set_name__(poset, attr)
            self._patches.append((poset, attr, original))
            setattr(poset, attr, traced)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path):
        """Save every span, once, as gzipped JSON columns."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_totals(self):
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[i]
            durations[name].append(end - start)
        return calls, total, self_s, durations


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    calls, total, self_s, durations = tracer.layer_totals()
    counts = tracer.counts
    out = {}

    def add(name, value, unit):
        out[name] = (value, unit)

    def calls_and_self(span, with_calls=True):
        if with_calls:
            add(f"{span}.calls", calls[span], "count")
        add(f"{span}.self_s", self_s[span], "s")

    calls_and_self("order.all_posets")
    add("order.all_posets.posets", counts["order.all_posets.posets"], "count")
    calls_and_self("order.canonical_key")
    calls_and_self("order.automorphisms", with_calls=False)
    calls_and_self("order.order_reversing_bijections", with_calls=False)

    calls_and_self("enumerate.count_frames")

    add("search.enumerate_frames.calls", calls["search.enumerate_frames"], "count")
    calls_and_self("search.run_branch")
    branch_ms = [d * 1000.0 for d in durations["search.run_branch"]]
    add("search.run_branch.p50_ms", _percentile(branch_ms, 50), "ms")
    add("search.run_branch.p95_ms", _percentile(branch_ms, 95), "ms")
    for counter in ("nodes", "prunes", "leaves", "frames_kept"):
        add(f"search.{counter}", counts[f"search.{counter}"], "count")
    add("search.keep_ratio",
        _ratio(counts["search.frames_kept"], counts["search.leaves"]), "ratio")

    calls_and_self("frame.complex_algebra")
    calls_and_self("frame.dual_frame")
    calls_and_self("frame.roundtrip_algebra", with_calls=False)
    calls_and_self("frame.validate_frame", with_calls=False)

    calls_and_self("algebra.validate.le64")
    calls_and_self("algebra.validate.gt64")
    calls_and_self("algebra.algebra_iso")
    calls_and_self("algebra.join_irreducibles")

    calls_and_self("filters.filter_frame")
    calls_and_self("filters.filter_product")
    calls_and_self("filters.gen_prime_filters")
    add("filters.gen_prime_filters.per_frame",
        _ratio(calls["filters.gen_prime_filters"], calls["filters.filter_frame"]), "ratio")
    calls_and_self("filters.space_algebra", with_calls=False)
    calls_and_self("filters.priestley_roundtrip", with_calls=False)

    add("catalog.build_catalog.total_s", total["catalog.build_catalog"], "s")
    calls_and_self("catalog.dqra_negations")

    calls_and_self("ra.closed_subsets")
    add("ra.closed_subsets.sets", counts["ra.closed_subsets.sets"], "count")
    calls_and_self("ra.max_proper_qra_subreduct", with_calls=False)

    calls_and_self("represent.representation_search")
    calls_and_self("represent.twist_order", with_calls=False)
    calls_and_self("represent.build_dq")
    add("represent.build_dq.elements", counts["represent.build_dq.elements"], "count")
    calls_and_self("represent.embed_search")
    calls_and_self("represent.verify_certificate", with_calls=False)

    calls_and_self("morphism.validate_homomorphism")
    add("morphism.validate_homomorphism.accept_ratio",
        _ratio(counts["morphism.validate_homomorphism.accepted"],
               calls["morphism.validate_homomorphism"]), "ratio")

    add("trace.overhead_s", overhead_s, "s")
    return out
