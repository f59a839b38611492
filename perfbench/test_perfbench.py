"""Checks of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import DERIVED, SPAN_NAMES, Tracer  # noqa: E402


def _traced_worker(workload: str, seed: int, tmp_path: Path) -> dict:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1",
         str(tmp_path / "spans.jsonl")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_call_counts_repeat_exactly(tmp_path):
    first = _traced_worker("verify-sweeps", 3, tmp_path)
    second = _traced_worker("verify-sweeps", 3, tmp_path)
    assert all(op["error"] is None for op in first["ops"] + second["ops"])
    calls = {k: v for k, v in first["layers"].items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second["layers"].items() if k.endswith(".calls")}
    assert calls["clique.clique_number.calls"] == 200
    assert calls["verify.suite_thm44.calls"] == 2
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(spans) == sum(calls.values())


def test_layer_metrics_match_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    produced = set(Tracer().metrics()) | {"trace_overhead_s"}
    assert produced == declared
    assert len(SPAN_NAMES) * 3 + len(DERIVED) + 1 == len(declared)


def test_install_rebinds_names_imported_elsewhere():
    import powerindex.groups as groups
    import powerindex.verify as verify

    tracer = Tracer()
    tracer.install()
    # verify.py imports these names and calls suites through a dict
    for fn in (verify.power_graph, verify.construct_group, groups.power_graph,
               verify._SUITES["chi"], groups.catalog_for_order):
        assert hasattr(fn, "__wrapped__")
    groups.construct_group("Z6")
    groups.construct_group("Z6")
    metrics = tracer.metrics()
    assert metrics["groups.construct_group.calls"] == 2
    assert metrics["groups.construct_group.hit_ratio"] == 0.5


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweeps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
