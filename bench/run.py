"""The ringlab benchmark: four batch workloads, timed end to end and traced per layer.

Run from the repository root:

    python3 bench/run.py --workload grid_small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20 --trace 1

``--workload all`` runs every workload, interleaving their repeats so that
a slow phase of the host spreads over all of them.  Each workload runs in
its own worker process (``bench/worker.py``) with ``workers=1``: one
closed-loop caller, no concurrency.  A repeat is the workload's fixed work;
repeats run until ``--seconds`` is spent (at least two).

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median seconds per
repeat), ``setup_s`` (median over fresh interpreters of ``import ringlab``
plus the workload's config objects) and ``peak_rss_mb``.  Both times are
scaled to a nominal host speed by a fixed reference computation timed next
to each of them (see ``REFERENCE_S``); the record keeps the raw times.
Failed units over attempted units, the error rate, is in
``failed``/``attempted``.
``--trace 1`` alternates plain and traced repeats and reports the
per-layer metrics of the traced ones, plus ``trace.overhead``.

Every output is checked.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (host, versions, source digest, quartiles, work sizes).
The benchmark needs ``src/ringlab`` next to ``bench/`` and exits with 2
without a result when it is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from inputs import WORKLOAD_NAMES, make_params
from units import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

SETUP_PROBES = 7  # fresh interpreters per workload, after one warm-up
# Nominal seconds of worker.host_reference, a round figure within the
# 0.08-0.12 s it takes on a 2-vCPU Xeon (Sapphire Rapids) KVM guest.  Every
# time the benchmark reports is scaled by REFERENCE_S / (the reference
# measured next to it), which divides out the drift of a shared host: there,
# over 20 s windows, the raw median of a repeated grid or campaign unit
# spread by 0.19-0.35 of its median and the scaled one by 0.06-0.14.
REFERENCE_S = 0.1
MIN_REPEATS = 2
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RING_LAB_THREADS", None)
    # measure imports from cached bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """A running ``worker.py`` for one workload, driven line by line."""

    def __init__(self, workload: str, params: dict, env: dict[str, str]):
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), workload, json.dumps(params)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        self.info = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.workload} worker exited with {self.proc.wait()}")
        return json.loads(line)

    def send(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        reply = self.send("exit")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _scaled(seconds: float, reference_s: float) -> float:
    """Seconds at the nominal host speed: the host reference taking REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s


def _setup_seconds(workloads, params, env) -> dict[str, dict[str, list[float]]]:
    """Set-up times from fresh interpreters, interleaved across workloads."""
    samples = {w: {"scaled": [], "raw": []} for w in workloads}
    for probe in range(SETUP_PROBES + 1):
        for w in workloads:
            out = subprocess.run(
                [sys.executable, str(WORKER), w, json.dumps(params[w]), "--setup-only"],
                env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
            )
            if probe:  # the first probe writes the bytecode cache
                reply = json.loads(out.stdout)
                samples[w]["raw"].append(reply["setup_s"])
                samples[w]["scaled"].append(_scaled(reply["setup_s"], reply["reference_s"]))
    return samples


def _drive(workers: dict[str, Worker], seconds: float, trace: bool) -> dict[str, dict]:
    """Round-robin repeats over the workers until the time budget is spent."""
    stats = {w: {"plain": [], "traced": [], "raw": [], "reference": [], "layers": [],
                 "absent": set(), "attempted": 0, "failed": 0, "errors": []} for w in workers}
    budget = seconds * len(workers)
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        command = "traced" if trace and rounds % 2 else "plain"
        for w, worker in workers.items():
            reply = worker.send(command)
            st = stats[w]
            st[command].append(_scaled(reply["seconds"], reply["reference_s"]))
            if command == "plain":
                st["raw"].append(reply["seconds"])
                st["reference"].append(reply["reference_s"])
            st["attempted"] += worker.info["units"]
            st["failed"] += reply["failed"]
            st["errors"].extend(reply["errors"][: 3 - len(st["errors"])])
            if "layers" in reply:
                st["layers"].append(reply["layers"])
                st["absent"].update(reply["absent"])
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_REPEATS and now - start + (now - round_start) > budget:
            return stats


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def _per_layer(st: dict) -> dict[str, float]:
    values = {}
    for name, _unit in PER_LAYER:
        samples = [layers[name] for layers in st["layers"] if name in layers]
        values[name] = statistics.median(samples) if samples else 0.0
    if st["traced"] and st["plain"]:
        values["trace.overhead"] = statistics.median(st["traced"]) / statistics.median(st["plain"]) - 1
    return values


def _host_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ringlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "scipy": scipy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "ring_lab_threads": "cleared",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "ringlab" / "__init__.py").is_file():
        print(f"ringlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        workloads = list(WORKLOAD_NAMES)
    elif args.workload in WORKLOAD_NAMES:
        workloads = [args.workload]
    else:
        parser.error(f"--workload must be one of {', '.join(WORKLOAD_NAMES)} or all")

    env = _worker_env()
    (BENCH / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BENCH / "out")
    workers: dict[str, Worker] = {}
    try:
        params = {w: make_params(w, args.seed, args.tiny, workdir) for w in workloads}
        setup = _setup_seconds(workloads, params, env)
        for w in workloads:
            workers[w] = Worker(w, params[w], env)
        stats = _drive(workers, args.seconds, bool(args.trace))
        peaks = {w: workers[w].close()["peak_rss_mb"] for w in workloads}
    finally:
        for worker in workers.values():
            worker.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"host": _host_record(), "numpy": workers[workloads[0]].info["numpy"],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "workloads": {}}
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for w in workloads:
        st = stats[w]
        q = _quartiles(st["plain"])
        summary = {
            "size": workers[w].info["size"],
            "run_s_quartiles": q,
            "repeats": len(st["plain"]),
            "traced_repeats": len(st["traced"]),
            "run_s_raw": st["raw"],
            "reference_s": st["reference"],
            "setup_s_raw": setup[w]["raw"],
            "setup_s_scaled": setup[w]["scaled"],
            "peak_rss_mb": peaks[w],
            "error_rate": st["failed"] / st["attempted"],
            "errors": st["errors"],
            "absent": sorted(st["absent"]),
        }
        record["workloads"][w] = summary
        attempted += st["attempted"]
        failed += st["failed"]
        values = {"run_s": q[1], "setup_s": statistics.median(setup[w]["scaled"]),
                  "peak_rss_mb": peaks[w]}
        print(f"{w}: run_s {q[1]:.4f} s (q1 {q[0]:.4f}, q3 {q[2]:.4f}, {len(st['plain'])} repeats)"
              f"  setup_s {values['setup_s']:.4f} s  peak_rss_mb {peaks[w]:.1f} MB"
              f"  error_rate {summary['error_rate']:.4g} ratio  size {summary['size']}")
        for error in st["errors"]:
            print(f"{w}: failed: {error.strip()}")
        if args.trace:
            layer_values = _per_layer(st)
            chosen = [(name, unit, layer_values[name]) for name, unit in PER_LAYER]
        else:
            chosen = [(name, unit, values[name]) for name, unit in END_TO_END]
        prefix = f"{w}." if len(workloads) > 1 else ""
        for name, unit, value in chosen:
            metrics[prefix + name] = {"value": value, "unit": unit}
        if len(workloads) > 1:
            metrics[prefix + "error_rate"] = {"value": summary["error_rate"], "unit": "ratio"}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
