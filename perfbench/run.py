"""powerindex benchmark: cold-process workloads with checked answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run starts one fresh worker process per repetition of the workload
(``worker.py``) until about S seconds have been measured, and takes
medians over the repetitions.  Before each repetition it times
``python -m powerindex.cli chi 36`` from a fresh interpreter
SETUP_PER_REP times; ``setup_s`` is the median of those calls, spread
over the run so that one slow moment of a shared host does not set it.  Each
worker checks every answer; a wrong answer, exception or timeout counts
as a failed op.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics: half the time goes to untraced and half to traced repetitions,
and ``trace_overhead_s`` is the difference of their median wall times.

The benchmark uses one process at a time and no threads.  It reads and
writes only inside the repository: spans and worker output go to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PER_REP = 3
# A run must end within 180 s; no repetition may start or continue past this.
DEADLINE_S = 165


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], out_path: Path, timeout: float) -> dict:
    """Run one child to completion; return its wall and CPU seconds, peak
    RSS, exit code and stdout.  A child past its timeout is killed."""
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stdin=subprocess.DEVNULL,
                                env=_env(), cwd=ROOT)
        timed_out = False
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "code": proc.returncode,
        "timed_out": timed_out,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
    }


def setup_call(deadline: float) -> tuple[float, bool]:
    """One cold ``powerindex chi 36``; its wall time and whether it printed 27."""
    argv = [sys.executable, "-m", "powerindex.cli", "chi", "36"]
    res = run_child(argv, OUT / "setup.out", deadline - time.perf_counter())
    ok = res["code"] == 0 and res["stdout"].strip() == "27"
    if not ok:
        print(f"FAILED setup call: exit {res['code']}, stdout "
              f"{res['stdout'].strip()[:80]!r}", file=sys.stderr)
    return res["wall"], ok


def repeat(workload: str, seed: int, trace: bool, seconds: float,
           min_reps: int, deadline: float, setup: list) -> list[dict]:
    """Run fresh workers, each after SETUP_PER_REP set-up calls appended to
    `setup`, until the next one would end more than half a repetition after
    `seconds`, but at least `min_reps`; stop early when it could not end by
    the deadline."""
    reps: list[dict] = []
    start = time.perf_counter()
    spans = OUT / f"spans-{workload}-{seed}.jsonl"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            "1" if trace else "0", str(spans)]
    while True:
        now = time.perf_counter()
        if reps:
            last = reps[-1]["wall"]
            if len(reps) >= min_reps and now - start + last / 2 > seconds:
                break
            if now + 1.5 * last > deadline:
                break
        setup.extend(setup_call(deadline) for _ in range(SETUP_PER_REP))
        res = run_child(argv, OUT / f"worker-{workload}.out",
                        deadline - time.perf_counter())
        res["ops"] = _outcomes(res)
        reps.append(res)
        if res["timed_out"]:
            break
    return reps


def _outcomes(res: dict) -> list[dict]:
    """The worker's per-op outcomes, or one failed op if the worker died."""
    lines = res["stdout"].strip().splitlines()
    if res["code"] == 0 and lines:
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and payload.get("ops"):
            res["layers"] = payload.get("layers")
            return payload["ops"]
    why = "timed out" if res["timed_out"] else f"worker exited with {res['code']}"
    return [{"op": "worker", "error": why}]


def _summary(name: str, values: list[float], unit: str) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return f"# {name}: median {q2:.4f} {unit}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = time.perf_counter()
    deadline = begin + DEADLINE_S

    if not (ROOT / "src" / "powerindex" / "__init__.py").is_file():
        print("perfbench: no src/powerindex package next to the benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup: list[tuple[float, bool]] = []
    setup_call(deadline)  # untimed: writes the bytecode cache
    if args.trace:
        untraced = repeat(args.workload, args.seed, False, args.seconds / 2,
                          1, deadline, setup)
        traced = repeat(args.workload, args.seed, True, args.seconds / 2,
                        1, deadline, setup)
        reps = untraced + traced
    else:
        reps = repeat(args.workload, args.seed, False, args.seconds,
                      2, deadline, setup)
    attempted = len(setup)
    failed = sum(not ok for _, ok in setup)
    setup_s = [wall for wall, _ in setup]
    for rep in reps:
        attempted += len(rep["ops"])
        for outcome in rep["ops"]:
            if outcome["error"]:
                failed += 1
                print(f"FAILED {outcome['op']}: {outcome['error']}", file=sys.stderr)

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values, calls_differ = _layer_values(untraced, traced)
        if calls_differ:
            failed += 1
            print("FAILED trace: call counts differ between traced repetitions",
                  file=sys.stderr)
    else:
        walls = [r["wall"] for r in reps]
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu"] for r in reps),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
            "ok_share": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_s),
        }
        print(_summary("wall_s", walls, "s"), file=sys.stderr)
        print(_summary("setup_s", setup_s, "s"), file=sys.stderr)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"# {len(reps)} repetitions in {time.perf_counter() - begin:.1f} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def _layer_values(untraced: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Median of each layer metric over the traced repetitions, exact call
    counts, and the tracing overhead; also whether call counts differed."""
    layers = [r["layers"] for r in traced if r.get("layers")]
    if not layers:
        return {}, True
    values = {}
    for name in layers[0]:
        series = [lay[name] for lay in layers]
        values[name] = series[0] if name.endswith(".calls") else statistics.median(series)
    calls_differ = any(lay[name] != layers[0][name]
                       for lay in layers for name in lay if name.endswith(".calls"))
    values["trace_overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                  - statistics.median(r["wall"] for r in untraced))
    return values, calls_differ


if __name__ == "__main__":
    sys.exit(main())
