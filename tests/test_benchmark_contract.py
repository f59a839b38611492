"""The names the benchmark in perfbench/ reaches in powerindex.

perfbench/spans.py wraps functions it looks up with getattr, and
perfbench/workloads.py calls module attributes in its ops and answer
checks.  A rename here would make every benchmark check fail, so the
names are pinned in tier 1.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

from powerindex.graphs import SimpleGraph, power_graph
from powerindex.groups import construct_group, group_fingerprint

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_resolve_every_wrapped_name():
    for layer, names in _load_spans().LAYERS.items():
        home = importlib.import_module(f"powerindex.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{layer}.{name}"


def test_workloads_resolve_every_module_attribute():
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    used = set(re.findall(r"\b(embedding|graphs|groups|matching|verify)\.(\w+)", text))
    assert ("graphs", "power_graph") in used
    for layer, name in sorted(used):
        home = importlib.import_module(f"powerindex.{layer}")
        assert hasattr(home, name), f"{layer}.{name}"


def test_power_graph_and_fingerprint_shape():
    g = construct_group("Z6")
    assert isinstance(power_graph(g).graph, SimpleGraph)
    orders, degrees = group_fingerprint(g)
    assert orders == (1, 2, 3, 3, 6, 6)
    assert degrees == (3, 4, 4, 5, 5, 5)
