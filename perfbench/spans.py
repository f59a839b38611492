"""Spans around the public functions of each powerindex layer.

The tracer measures from outside the package: it replaces each wrapped
function by a timing wrapper wherever a ``powerindex.*`` module holds a
reference to it (a module attribute, or a value in a module-level dict
such as the verify suite registry).  Wrapping only the defining module
would miss calls made through ``from .graphs import power_graph``.

Spans are kept in memory as ``[name, start, end, parent, note, nested]``
and written out once, when the run ends.  ``nested`` marks a span inside
another span of the same function (recursion), which inclusive time
leaves out so that it is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Wrapped functions per layer; metric names are <layer>.<function>.<stat>.
LAYERS = {
    "groups": ("construct_group", "catalog_for_order", "are_isomorphic",
               "group_fingerprint"),
    "graphs": ("power_graph",),
    "clique": ("clique_number",),
    "matching": ("maximum_matching", "maximum_matching_bruteforce",
                 "check_theorem44", "path_cover_from_matching",
                 "matching_from_path_cover"),
    "embedding": ("embeds", "theta_search"),
    "numtheory": ("chi",),
    "verify": ("suite_chi", "suite_theta_kn", "suite_kst", "suite_matching",
               "suite_thm44", "suite_degrees"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

DERIVED = (
    "graphs.power_graph.builds_per_group",
    "groups.construct_group.hit_ratio",
    "embedding.embeds.found_ratio",
    "embedding.embeds.neg_self_s",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth = dict.fromkeys(SPAN_NAMES, 0)
        # groups returned so far, by id; holding them keeps the ids unique
        self._returned: dict[int, object] = {}

    def _note(self, name: str, args: tuple, result):
        """What a derived metric needs to know about one call."""
        if name == "graphs.power_graph":
            return args[0].label
        if name == "groups.construct_group":
            hit = id(result) in self._returned
            self._returned[id(result)] = result
            return hit
        if name == "embedding.embeds":
            return result is not None
        return None

    def wrap(self, name: str, fn):
        spans, stack, depth, now = self.spans, self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, now(), 0.0, stack[-1] if stack else -1, None, depth[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
                span[4] = self._note(name, args, result)
                return result
            finally:
                span[2] = now()
                stack.pop()
                depth[name] -= 1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every wrapped function in every loaded powerindex module."""
        importlib.import_module("powerindex.cli")  # loads every module
        loaded = [m for key, m in sys.modules.items()
                  if key == "powerindex" or key.startswith("powerindex.")]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"powerindex.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                        elif type(value) is dict:
                            for key, item in list(value.items()):
                                if item is original:
                                    value[key] = traced

    def metrics(self) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds, plus the ratios."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.incl_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        labels: set[str] = set()
        hits = found = 0
        neg_self = 0.0
        for i, (name, start, end, _, note, nested) in enumerate(self.spans):
            dur = end - start
            self_s = dur - child[i]
            out[f"{name}.calls"] += 1
            if not nested:
                out[f"{name}.incl_s"] += dur
            out[f"{name}.self_s"] += self_s
            if name == "graphs.power_graph":
                labels.add(note)
            elif name == "groups.construct_group":
                hits += bool(note)
            elif name == "embedding.embeds":
                if note:
                    found += 1
                else:
                    neg_self += self_s
        builds = out["graphs.power_graph.calls"]
        made = out["groups.construct_group.calls"]
        tries = out["embedding.embeds.calls"]
        out["graphs.power_graph.builds_per_group"] = builds / len(labels) if labels else 0.0
        out["groups.construct_group.hit_ratio"] = hits / made if made else 0.0
        out["embedding.embeds.found_ratio"] = found / tries if tries else 0.0
        out["embedding.embeds.neg_self_s"] = neg_self
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
