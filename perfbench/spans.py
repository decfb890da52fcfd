"""Spans and counters around the package's layer functions.

Used by the traced child only, after set-up.  ``Tracer.install`` rebinds
each layer function, in every ``ramanujan_cloud`` module namespace that holds
it, to a wrapper that records a span (name, start, end, parent span, operation
id) and the layer's counters.  Nothing in the package is edited: the spans sit
at the boundaries the package already has.  Spans stay in memory until
``finish``; ``write`` puts them in a JSONL file.

A layer function that no longer exists (say a private kernel folded away by a
refactor) is skipped, and its metrics are reported as missing.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# Counting distinct radicals with the benchmark's own trial division leaves
# the package's factorize cache untouched.
from workloads import radical

# Operations per workload, at most, among the workloads BENCHMARK.json lists.
# The fourth operation of exact_identities is timed in the report file only.
MAX_OPS = 3

# Every per-layer metric, in output order, with its unit.  ``bytes`` are
# computed from the sizes of the arrays the layer returns, not measured.
LAYER_METRICS = [
    ("core.sieve_primes.calls", "count"),
    ("core.sieve_primes.self_s", "s"),
    ("core.phi_table.builds", "count"),
    ("core.phi_table.self_s", "s"),
    ("core.phi_table.hit_ratio", "1"),
    ("core.phi_table.bytes", "B"),
    ("core.mobius_table.builds", "count"),
    ("core.mobius_table.self_s", "s"),
    ("core.mobius_table.hit_ratio", "1"),
    ("core.mobius_table.bytes", "B"),
    ("core.factorize.misses", "count"),
    ("core.factorize.hit_ratio", "1"),
    ("sums.c_table.calls", "count"),
    ("sums.c_table.self_s", "s"),
    ("sums.c_table.repeat_ratio", "1"),
    ("sums.c_holder.calls", "count"),
    ("multiplicative.eval.calls", "count"),
    ("multiplicative.eval.memo_hit_ratio", "1"),
    ("multiplicative.spectrum.self_s", "s"),
    ("multiplicative.is_weakly_exotic.self_s", "s"),
    ("expansion.value_table.builds", "count"),
    ("expansion.value_table.self_s", "s"),
    ("expansion.value_table.bytes", "B"),
    ("expansion.coprime_mask.calls", "count"),
    ("expansion.coprime_mask.self_s", "s"),
    ("expansion.coprime_mask.distinct_ratio", "1"),
    ("expansion.series_float.calls", "count"),
    ("expansion.series_float.self_s", "s"),
    ("expansion.series_float.terms", "count"),
    ("expansion.series_exact.calls", "count"),
    ("expansion.series_exact.self_s", "s"),
    ("expansion.series_exact.terms", "count"),
    ("expansion.neumaier.self_s", "s"),
    ("expansion.detect_convergence.self_s", "s"),
]
OP_METRICS = [(f"op.{i}.s", "s") for i in range(MAX_OPS)]
PER_LAYER = LAYER_METRICS + OP_METRICS + [("trace.overhead_s", "s")]

# (module, function, layer) for every wrapped layer function.
LAYERS = [
    ("core", "sieve_primes", "core.sieve_primes"),
    ("core", "phi_table", "core.phi_table"),
    ("core", "mobius_table", "core.mobius_table"),
    ("sums", "c_table", "sums.c_table"),
    ("sums", "c_holder", "sums.c_holder"),
    ("multiplicative", "spectrum", "multiplicative.spectrum"),
    ("multiplicative", "is_weakly_exotic", "multiplicative.is_weakly_exotic"),
    ("expansion", "_value_table", "expansion.value_table"),
    ("expansion", "_coprime_mask", "expansion.coprime_mask"),
    ("expansion", "expansion_partial_sums", "expansion.series"),
    ("expansion", "restricted_mobius_partial_sums", "expansion.series"),
    ("expansion", "_neumaier_segments", "expansion.neumaier"),
    ("expansion", "detect_convergence", "expansion.detect_convergence"),
]
SERIES_LAYERS = ("expansion.series_float", "expansion.series_exact")


def _arg(args, kw, i, name):
    return args[i] if len(args) > i else kw[name]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.c_table_keys: set = set()
        self.radicals: set = set()
        self.present: set[str] = set()
        self._undo: list = []
        self._lru: dict = {}  # name -> (lru_cache object, cache_info at install)
        self.t0 = perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kw):
            state = before(args, kw) if before else None
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kw)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if after:
                after(spans[idx], state, args, kw, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _lru_table(self, layer, fn):
        counts = self.counts

        def after(span, misses, args, kw, result):
            if fn.cache_info().misses > misses:
                counts[layer + ".builds"] += 1
                counts[layer + ".bytes"] += result.nbytes

        return self._span(layer, fn, lambda args, kw: fn.cache_info().misses, after)

    def _c_table(self, layer, fn):
        def before(args, kw):
            key = (_arg(args, kw, 0, "a"), _arg(args, kw, 1, "Q"))
            if key in self.c_table_keys:
                self.counts[layer + ".repeats"] += 1
            self.c_table_keys.add(key)

        return self._span(layer, fn, before)

    def _value_table(self, layer, fn):
        counts = self.counts

        def before(args, kw):
            memo = getattr(_arg(args, kw, 0, "G"), "_memo", None)
            return memo is None or ("values", _arg(args, kw, 1, "Q")) not in memo

        def after(span, built, args, kw, result):
            if built:
                counts[layer + ".builds"] += 1
                counts[layer + ".bytes"] += result.nbytes

        return self._span(layer, fn, before, after)

    def _coprime_mask(self, layer, fn):
        return self._span(layer, fn, lambda args, kw: self.radicals.add(radical(_arg(args, kw, 1, "b"))))

    def _series(self, layer, fn):
        counts = self.counts

        def after(span, state, args, kw, result):
            # Which path ran is only known from the result.
            span[0] = SERIES_LAYERS[result.mode == "exact-rational"]
            counts[span[0] + ".terms"] += _arg(args, kw, 2, "Q" if fn.__name__ == "expansion_partial_sums" else "x")

        return self._span(layer, fn, None, after)

    def _counted(self, layer, fn):
        counts = self.counts

        def wrapper(*args, **kw):
            counts[layer + ".calls"] += 1
            return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    def _eval(self, fn):
        counts = self.counts

        def wrapper(G, n):
            counts["multiplicative.eval.calls"] += 1
            if n in G._memo:
                counts["multiplicative.eval.memo_hits"] += 1
            return fn(G, n)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / finish -------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "ramanujan_cloud" and not name.startswith("ramanujan_cloud."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self, rc) -> "Tracer":
        makers = {
            "core.phi_table": self._lru_table,
            "core.mobius_table": self._lru_table,
            "sums.c_table": self._c_table,
            "sums.c_holder": self._counted,
            "expansion.value_table": self._value_table,
            "expansion.coprime_mask": self._coprime_mask,
            "expansion.series": self._series,
        }
        # Keep the lru_cache objects themselves: the wrappers put in their
        # place below have no cache_info.
        core = sys.modules["ramanujan_cloud.core"]
        for name in ("factorize", "phi_table", "mobius_table"):
            fn = getattr(core, name, None)
            if hasattr(fn, "cache_info"):
                self._lru[name] = (fn, fn.cache_info())
        for module, func, layer in LAYERS:
            original = getattr(sys.modules[f"ramanujan_cloud.{module}"], func, None)
            if original is None:
                continue
            self.present.add(layer)
            make = makers.get(layer, self._span)
            if make == self._lru_table and not hasattr(original, "cache_info"):
                make = self._span
            self._rebind(original, make(layer, original))
        if original_eval := getattr(rc.MultiplicativeFunction, "eval", None):
            self.present.add("multiplicative.eval")
            wrapper = self._eval(original_eval)
            for attr in ("eval", "__call__"):
                if vars(rc.MultiplicativeFunction).get(attr) is original_eval:
                    setattr(rc.MultiplicativeFunction, attr, wrapper)
                    self._undo.append((rc.MultiplicativeFunction, attr, original_eval))
        return self

    def run_op(self, op_id: int, fn):
        self.op = op_id
        try:
            return self._span(f"op.{op_id}", fn)()
        finally:
            self.op = -1

    def finish(self) -> dict:
        """Restore the package and return {"metrics": {...}, "missing": [...]}."""
        lru = {}
        for name, (fn, start) in self._lru.items():
            end = fn.cache_info()
            lru[name] = (end.hits - start.hits, end.misses - start.misses)
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_s[i]

        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        hits_phi, miss_phi = lru.get("phi_table", (0, 0))
        hits_mu, miss_mu = lru.get("mobius_table", (0, 0))
        hits_f, miss_f = lru.get("factorize", (0, 0))
        m = {
            "core.sieve_primes.calls": calls["core.sieve_primes"],
            "core.sieve_primes.self_s": self_s["core.sieve_primes"],
            "core.phi_table.builds": c["core.phi_table.builds"],
            "core.phi_table.self_s": self_s["core.phi_table"],
            "core.phi_table.hit_ratio": ratio(hits_phi, hits_phi + miss_phi),
            "core.phi_table.bytes": c["core.phi_table.bytes"],
            "core.mobius_table.builds": c["core.mobius_table.builds"],
            "core.mobius_table.self_s": self_s["core.mobius_table"],
            "core.mobius_table.hit_ratio": ratio(hits_mu, hits_mu + miss_mu),
            "core.mobius_table.bytes": c["core.mobius_table.bytes"],
            "core.factorize.misses": miss_f,
            "core.factorize.hit_ratio": ratio(hits_f, hits_f + miss_f),
            "sums.c_table.calls": calls["sums.c_table"],
            "sums.c_table.self_s": self_s["sums.c_table"],
            "sums.c_table.repeat_ratio": ratio(c["sums.c_table.repeats"], calls["sums.c_table"]),
            "sums.c_holder.calls": c["sums.c_holder.calls"],
            "multiplicative.eval.calls": c["multiplicative.eval.calls"],
            "multiplicative.eval.memo_hit_ratio": ratio(
                c["multiplicative.eval.memo_hits"], c["multiplicative.eval.calls"]
            ),
            "multiplicative.spectrum.self_s": self_s["multiplicative.spectrum"],
            "multiplicative.is_weakly_exotic.self_s": self_s["multiplicative.is_weakly_exotic"],
            "expansion.value_table.builds": c["expansion.value_table.builds"],
            "expansion.value_table.self_s": self_s["expansion.value_table"],
            "expansion.value_table.bytes": c["expansion.value_table.bytes"],
            "expansion.coprime_mask.calls": calls["expansion.coprime_mask"],
            "expansion.coprime_mask.self_s": self_s["expansion.coprime_mask"],
            "expansion.coprime_mask.distinct_ratio": ratio(len(self.radicals), calls["expansion.coprime_mask"]),
            "expansion.neumaier.self_s": self_s["expansion.neumaier"],
            "expansion.detect_convergence.self_s": self_s["expansion.detect_convergence"],
        }
        for layer in SERIES_LAYERS:
            m[layer + ".calls"] = calls[layer]
            m[layer + ".self_s"] = self_s[layer]
            m[layer + ".terms"] = c[layer + ".terms"]

        present = set(self.present)
        if "expansion.series" in present:
            present.update(SERIES_LAYERS)
        if "factorize" in lru:
            present.add("core.factorize")
        missing = [name for name, _ in LAYER_METRICS if name.rsplit(".", 1)[0] not in present]
        # A table that is no longer an lru_cache has no hits, builds or bytes.
        missing += [
            f"core.{table}.{what}"
            for table in ("phi_table", "mobius_table")
            if f"core.{table}" in present and table not in lru
            for what in ("builds", "hit_ratio", "bytes")
        ]
        for name in missing:
            m[name] = 0
        return {"metrics": m, "missing": missing}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start - self.t0, "end": end - self.t0, "parent": parent, "op": op}
                fh.write(json.dumps(record) + "\n")
