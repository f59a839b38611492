"""One repetition of one workload, in a fresh interpreter with cold caches.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE SPANS_PATH

Runs every op of the workload under a per-op timeout and checks each
answer.  With TRACE=1 it first installs the spans of ``spans.Tracer``,
writes them to SPANS_PATH at the end and adds the layer metrics.  The
last stdout line is one JSON object with the per-op outcomes.
"""

from __future__ import annotations

import json
import signal
import sys
import time

OP_TIMEOUT_S = 60


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op outlives OP_TIMEOUT_S.  It derives from
    BaseException so that no handler inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def main(argv: list[str]) -> int:
    workload, seed, trace, spans_path = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    ops = WORKLOADS[workload](seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = []
    for op in ops:
        start = time.perf_counter()
        error = None
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            if not op.check(op.run()):
                error = "wrong answer"
        except OpTimeout:
            error = f"timeout after {OP_TIMEOUT_S} s"
        except Exception as exc:  # any library failure counts as a failed op
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcomes.append({"op": op.name, "error": error,
                         "seconds": time.perf_counter() - start})
    result = {"ops": outcomes}
    if tracer is not None:
        tracer.dump(spans_path)
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
