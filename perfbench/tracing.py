"""Per-layer spans and counters, recorded from outside the library.

``install`` rebinds names in the modules that call each layer.  The
library imports with ``from .x import y``, so patching the defining
module would miss the callers: the wrappers replace the names the
callers look up at call time.  ``shapespace.explore`` as a package
attribute is the ``explore`` function, so the module is reached with
``importlib.import_module``.

A span is ``[name, start, end, parent index]``; spans stay in memory
until ``Tracer.dump`` writes them out once, after the exploration.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module, attribute) -> span name.  A dotted attribute is a method,
# wrapped on its class: the engines' ``successors`` and the store's
# ``add``, whose spans hold the certificate and compare calls.
SPANS = {
    ("shapespace.explore", "prematch"): "rules.prematch",
    ("shapespace.explore", "materialise"): "rules.materialise",
    ("shapespace.explore", "apply"): "rules.apply",
    ("shapespace.explore", "normalise"): "rules.normalise",
    ("shapespace.explore", "concrete_matches"): "rules.concrete_matches",
    ("shapespace.explore", "concrete_apply"): "rules.concrete_apply",
    ("shapespace.explore", "abstract"): "shapes.abstract",
    ("shapespace.explore", "shape_certificate"): "shapes.shape_certificate",
    ("shapespace.explore", "strict_shape_certificate"):
        "shapes.strict_shape_certificate",
    ("shapespace.explore", "compare_shapes"): "shapes.compare_shapes",
    ("shapespace.explore", "graph_certificate"): "graphs.certificate",
    ("shapespace.explore", "find_isomorphism"): "graphs.find_isomorphism",
    ("shapespace.shapes", "certificate"): "graphs.certificate",
    ("shapespace.explore", "ConcreteEngine.successors"): "explore.successors",
    ("shapespace.explore", "AbstractEngine.successors"): "explore.successors",
    ("shapespace.explore", "_Store.add"): "explore.store",
}

# Generators are counted, not timed: their time is spent interleaved
# with the caller's.
YIELD_COUNTS = {
    ("shapespace.shapes", "isomorphisms"): "graphs.isomorphisms.yielded",
}

# Span name -> function of a call's result, counted per call.
OUTCOMES = {
    "explore.successors": lambda r: ("out", len(r)),
    "explore.store": lambda r: ("fresh", int(r[0])),
    "rules.prematch": lambda r: ("matches", len(r)),
    "rules.materialise": lambda r: ("branches", len(r)),
    "rules.concrete_matches": lambda r: ("matches", len(r)),
    "shapes.compare_shapes": lambda r: ("hits", int(any(w is not None for w in r))),
    "graphs.find_isomorphism": lambda r: ("hits", int(r is not None)),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._installed = []

    def span(self, name, fn):
        """``fn`` wrapped so that each call records a span under ``name``."""
        spans, stack, counts = self.spans, self._stack, self.counts
        outcome = OUTCOMES.get(name)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[name, "raised", type(exc).__name__] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if outcome is not None:
                key, n = outcome(result)
                counts[name, key] += n
            return result

        return timed

    def yields(self, name, gen_fn):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def install(self):
        """Wrap every target; returns the targets the library lacks."""
        missing = []
        for table, wrap in ((SPANS, self.span), (YIELD_COUNTS, self.yields)):
            for (module_name, attr), name in table.items():
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                self._installed.append((owner, leaf, original))
                setattr(owner, leaf, wrap(name, original))
        return missing

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics from one traced exploration of ``wall_s`` seconds.

    ``.s`` is the inclusive time of a layer's calls.  ``explore.self_s``
    is the traced wall time not covered by any top-level span, so it
    and the top-level spans' times add up to ``wall_s``.
    """
    calls = Counter()
    total = Counter()
    for name, start, end, _ in tracer.spans:
        calls[name] += 1
        total[name] += end - start
    top = sum(end - start for _, start, end, parent in tracer.spans
              if parent is None)
    compares = Counter()
    for name, _, _, parent in tracer.spans:
        if parent is not None and tracer.spans[parent][0] == "explore.store":
            compares[name] += 1
    c = tracer.counts
    adds = calls["explore.store"]
    m = {
        "explore.successors.calls": calls["explore.successors"],
        "explore.successors.s": total["explore.successors"],
        "explore.successors.out_per_call": _ratio(
            c["explore.successors", "out"], calls["explore.successors"]),
        "explore.store.adds": adds,
        "explore.store.s": total["explore.store"],
        "explore.store.fresh_ratio": _ratio(c["explore.store", "fresh"], adds),
        "explore.store.compares_per_add": _ratio(
            compares["shapes.compare_shapes"]
            + compares["graphs.find_isomorphism"], adds),
        "explore.self_s": wall_s - top,
        "shapes.abstract.s": total["shapes.abstract"],
        "graphs.isomorphisms.yielded": c["graphs.isomorphisms.yielded"],
    }
    for name in ("shapes.shape_certificate", "shapes.strict_shape_certificate",
                 "shapes.compare_shapes", "graphs.certificate",
                 "graphs.find_isomorphism", "rules.prematch",
                 "rules.materialise", "rules.apply", "rules.normalise",
                 "rules.concrete_matches", "rules.concrete_apply"):
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = total[name]
    for name in ("shapes.compare_shapes", "graphs.find_isomorphism"):
        m[name + ".hit_ratio"] = _ratio(c[name, "hits"], calls[name])
    for name in ("rules.prematch", "rules.concrete_matches"):
        m[name + ".matches"] = c[name, "matches"]
    m["rules.materialise.branches"] = c["rules.materialise", "branches"]
    infeasible = c["rules.apply", "raised", "ApplyInfeasible"]
    m["rules.apply.infeasible"] = infeasible
    m["rules.apply.feasible_ratio"] = _ratio(
        calls["rules.apply"] - infeasible, calls["rules.apply"])
    return m
