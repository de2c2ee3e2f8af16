"""Benchmark worker: one workload in a fresh interpreter.

Started by ``bench/run.py`` as ``python3 bench/worker.py WORKLOAD PARAMS_JSON``
with ``src`` on ``PYTHONPATH``.  It times its own set-up (``import ringlab``
plus the workload's config objects), prints one JSON line, then answers
each line on stdin:

- ``plain``: run one repeat, reply with its seconds, failed units and the
  host reference time around it;
- ``traced``: the same with the span wrappers installed, plus the
  per-layer values of that repeat;
- ``exit``: reply with the process's peak resident memory and exit.

With ``--setup-only`` it prints the set-up time and a host reference time
and exits.  One process per workload keeps every workload's memory peak
its own.

The host reference is fixed work that does not touch ringlab, timed next
to every measurement.  On a shared host the speed of the same code drifts
by tens of percent over minutes; ``run.py`` divides that drift out.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback

from spans import Tracer
from units import WORKLOADS, layer_metrics


def _peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``ru_maxrss`` keeps the peak of the process that forked this one across
    exec, so it would report the parent's size; ``VmHWM`` starts afresh.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def host_reference() -> float:
    """Seconds taken by fixed work independent of ringlab.

    Interpreter-bound loops and small numpy calls, the mix the workloads
    run; about 0.1 s on an idle Xeon (Sapphire Rapids) KVM guest.
    """
    import numpy as np

    start = time.perf_counter()
    gen = np.random.default_rng(12345)
    table: dict = {}
    for i in range(4000):
        x = gen.integers(0, 64, size=48)
        hit = (x[:, None] == x[None, :6]).any(axis=1)
        table[i % 97] = tuple(sorted(set(x[hit].tolist())))
    for i in range(200_000):
        table[i & 1023] = (i, i + 1)
    return time.perf_counter() - start


def _repeat(workload, tracer: Tracer, traced: bool) -> dict:
    if traced:
        tracer.install()
    start = time.perf_counter()
    try:
        result = workload.run(tracer)
        error = None
    except Exception:
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    if traced:
        tracer.uninstall()
    if error is None:
        try:
            problems = workload.check(result)
        except Exception:
            problems = [traceback.format_exc(limit=4)] * workload.units
    else:
        problems = [error] * workload.units
    reply = {"seconds": seconds, "failed": len(problems), "errors": problems[:3]}
    if traced and error is None:
        reply["layers"], reply["absent"] = layer_metrics(tracer, workload)
    tracer.reset()
    return reply


def main(argv: list[str]) -> int:
    name, params = argv[0], json.loads(argv[1])
    start = time.perf_counter()
    workload = WORKLOADS[name](params)
    setup_s = time.perf_counter() - start
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s, "reference_s": host_reference()}))
        return 0
    print(json.dumps({
        "units": workload.units,
        "size": workload.size,
        "numpy": sys.modules["numpy"].__version__,
    }), flush=True)
    tracer = Tracer()
    before = host_reference()
    for line in sys.stdin:
        command = line.strip()
        if command == "exit":
            break
        reply = _repeat(workload, tracer, command == "traced")
        after = host_reference()
        reply["reference_s"] = (before + after) / 2
        before = after
        print(json.dumps(reply), flush=True)
    print(json.dumps({"peak_rss_mb": _peak_rss_kb() / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
