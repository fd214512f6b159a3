"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

The tracer wraps public functions of each ``unieq`` layer from outside the
program.  ``unieq.engines`` imports its helpers by name, so the wrappers
replace the names that ``unieq.engines`` looks up, not only the defining
module's.  Every wrapped call records a span ``[name, start, end, parent]``
in memory; the harness opens one root span per decision and per recheck,
and the spans are written out when the run ends.  Counters
(``GaussianRational`` arithmetic calls, items yielded by
``iter_word_traces``) are kept beside the spans.
"""

from __future__ import annotations

import functools
import json
import time

# span names grouped by the per-layer metric they feed
SCALE = ("common_scale", "ProblemInstance.scaled_common")
GADGETS = (
    "build_general_gadget",
    "build_similarity_gadget",
    "congruence_triple",
    "build_congruence_K",
)
CLOSURE = ("algebra_closure", "simultaneously_unitarily_similar")
OVERHEAD = ("solve_general", "unitarily_congruent", "unitarily_similar")
WALK = ("specht_brute",)
EVAL = ("eval_word",)

# the functions wrapped where unieq.engines looks them up
ENGINES_NAMES = SCALE[:1] + GADGETS + CLOSURE + OVERHEAD + WALK + EVAL

ROOT_DECIDE = "decide"
ROOT_RECHECK = "recheck"
ROOT_GENERATE = "generate"
ROOT_WARMUP = "warmup"

_GR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


class Tracer:
    """In-memory span recorder with the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.gr_ops = 0
        self.traced = 0

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()

        return wrapper

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` inside a root span."""
        return self.span(name, fn)(*args)

    def install(self):
        """Patch the layer functions (for the rest of the process)."""
        from unieq import engines, gadgets, numerics

        for name in ENGINES_NAMES:
            setattr(engines, name, self.span(name, getattr(engines, name)))
        cls = gadgets.ProblemInstance
        cls.scaled_common = self.span(SCALE[1], cls.scaled_common)

        inner_walk = engines.iter_word_traces

        @functools.wraps(inner_walk)
        def counted_walk(*args, **kwargs):
            for item in inner_walk(*args, **kwargs):
                self.traced += 1
                yield item

        engines.iter_word_traces = counted_walk

        gr = numerics.GaussianRational
        for op in _GR_OPS:
            setattr(gr, op, self._counted(getattr(gr, op)))

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            self.gr_ops += 1
            return fn(*args)

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def layer_metrics(spans, decisions, gr_ops, traced, span_dim):
    """The per-layer metrics from one traced run.

    ``decisions`` is the number of decisions timed, ``gr_ops`` and
    ``traced`` the counter totals over them, and ``span_dim`` the mean
    ``Verdict.dimension`` of those that report one (0 if none do).  Times
    are ms per decision, the recheck of its certificate included, except
    ``instances.generate_ms`` (the whole instance list, once) and
    ``engines.recheck_ms`` (per recheck).
    """
    child = [0.0] * len(spans)
    root_of = [-1] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root_of[i] = root_of[parent] if root_of[parent] >= 0 else parent
    totals = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            continue
        if spans[root_of[i]][0] not in (ROOT_DECIDE, ROOT_RECHECK):
            continue
        dur = end - start
        totals[name] = totals.get(name, 0.0) + dur
        totals[name + ":self"] = totals.get(name + ":self", 0.0) + dur - child[i]

    def total(names, self_time=False):
        key = ":self" if self_time else ""
        return sum(totals.get(n + key, 0.0) for n in names)

    def per_decision_ms(seconds):
        return 1e3 * seconds / decisions

    rechecks = [end - start for name, start, end, parent in spans
                if parent < 0 and name == ROOT_RECHECK]
    generate = [end - start for name, start, end, parent in spans
                if parent < 0 and name == ROOT_GENERATE]
    walk_s = total(WALK, self_time=True)
    return {
        "instances.generate_ms": (1e3 * sum(generate), "ms"),
        "numerics.scale_ms": (per_decision_ms(total(SCALE)), "ms"),
        "numerics.gr_ops": (gr_ops / decisions, "count"),
        "gadgets.build_ms": (per_decision_ms(total(GADGETS)), "ms"),
        "engines.closure_ms": (per_decision_ms(total(CLOSURE, True)), "ms"),
        "engines.overhead_ms": (per_decision_ms(total(OVERHEAD, True)), "ms"),
        "engines.span_dim": (span_dim, "count"),
        "engines.recheck_ms": (
            1e3 * sum(rechecks) / len(rechecks) if rechecks else 0.0, "ms"
        ),
        "words.eval_ms": (per_decision_ms(total(EVAL)), "ms"),
        "words.walk_ms": (per_decision_ms(walk_s), "ms"),
        "words.traced": (traced / decisions, "count"),
        "words.traced_per_s": (
            traced / walk_s if walk_s > 0 else 0.0, "1/s"
        ),
    }
