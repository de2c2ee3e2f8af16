"""The four workloads as the benchmark worker runs them.

Each workload builds its config objects in ``__init__``, runs one repeat of
its fixed work in ``run`` and checks that repeat's outputs in ``check``,
which returns one message per failed unit.  ringlab is imported inside
``__init__`` because ``setup_s`` times ``import ringlab`` plus the config
objects in a fresh interpreter.

A unit is what ``error_rate`` counts: one (cell, model) campaign on the
grids, one ``run_campaign`` call on ``campaign`` and one CLI invocation on
``core_cli``.
"""
from __future__ import annotations

import hashlib
import math

from spans import Tracer, self_times

# -- per-layer metrics ----------------------------------------------------------

# Span layers and the fields reported for each: calls per repeat and/or
# self seconds per repeat.  ``adversary.trial`` also holds the self time of
# the run_campaign loop and ``cli.output`` the self time of ``cli.main``;
# the benchmark wraps those calls itself.
SPAN_FIELDS = {
    "samplers.stream_setup": ("calls", "self_s"),
    "samplers.floyd": ("calls", "self_s"),
    "samplers.digraph_sample": ("self_s",),
    "samplers.graph_sample": ("self_s",),
    "graph.sc_check": ("calls", "self_s"),
    "graph.build": ("calls", "self_s"),
    "graph.matching": ("calls", "self_s"),
    "graph.induced_digraph": ("self_s",),
    "graph.scc": ("self_s",),
    "graph.reach": ("self_s",),
    "graph.validate": ("self_s",),
    "core.flags": ("calls", "self_s"),
    "core.core": ("self_s",),
    "core.report": ("self_s",),
    "adversary.trial": ("self_s",),
    "adversary.guess": ("self_s",),
    "adversary.corrupt": ("self_s",),
    "conjecture.campaign": ("calls", "self_s"),
    "cli.parse": ("self_s",),
    "cli.output": ("self_s",),
}

# Traced microseconds per digraph trial (both models, all k) at each n.
US_PER_TRIAL_N = (4, 16, 64, 256, 2048, 4096)

CAMPAIGN_LABELS = ("trivial", "core", "black_marble")

# Exact waste counters and the layer each one counts.
COUNTERS = {"cli.matchings_per_invocation": "graph.matching"} | {
    f"{counter}.{label}": layer
    for label in CAMPAIGN_LABELS
    for counter, layer in (
        ("adversary.core_flags_per_trial", "core.flags"),
        ("adversary.matchings_per_trial", "graph.matching"),
        ("graph.build_per_trial", "graph.build"),
    )
}

PER_LAYER = (
    [(f"{layer}.{field}", "count" if field == "calls" else "s")
     for layer, fields in SPAN_FIELDS.items() for field in fields]
    + [(f"conjecture.us_per_trial.n{n}", "us") for n in US_PER_TRIAL_N]
    + [(name, "ratio") for name in COUNTERS]
    + [("trace.overhead", "ratio")]
)


def layer_metrics(tracer: Tracer, workload) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced repeat, and the names reported absent.

    A layer is absent when none of its wrapped names exists any more; its
    metrics read 0 and are listed, so a deleted function is not an error.
    """
    times = self_times(tracer.spans)
    values: dict[str, float] = {}
    absent: list[str] = []
    for layer, fields in SPAN_FIELDS.items():
        calls, self_s = times.get(layer, (0, 0.0))
        for field in fields:
            name = f"{layer}.{field}"
            values[name] = calls if field == "calls" else self_s
            if layer in tracer.absent:
                absent.append(name)
    trials = {n: 0 for n in US_PER_TRIAL_N}
    busy = {n: 0.0 for n in US_PER_TRIAL_N}
    for span in tracer.spans:
        if span[0] == "conjecture.campaign" and span[5][0] in trials:
            n, count = span[5]
            trials[n] += count
            busy[n] += span[2] - span[1]
    for n in US_PER_TRIAL_N:
        values[f"conjecture.us_per_trial.n{n}"] = 1e6 * busy[n] / trials[n] if trials[n] else 0.0
    if "conjecture.campaign" in tracer.absent:
        absent.extend(f"conjecture.us_per_trial.n{n}" for n in US_PER_TRIAL_N)
    counters = workload.counters(tracer)
    for name, layer in COUNTERS.items():
        values[name] = counters.get(name, 0.0)
        if layer in tracer.absent:
            absent.append(name)
    return values, absent


def _wilson(events: int, trials: int, z: float) -> tuple[float, float]:
    p = events / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = z / denom * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return center - margin, center + margin


# -- workloads ------------------------------------------------------------------

# Exact strong-connectivity failure probabilities at n = 4, from exhaustive
# enumeration: (model, k) -> probability.
EXACT_N4 = {("reg", 1): 25 / 27, ("bin", 1): 0.892908, ("reg", 3): 0.0, ("bin", 3): 0.0}
WIDE_Z = 5.0  # Wilson interval for the exact cells; a false alarm is ~1e-6


class Grid:
    """``check_conjectures_grid`` with one worker (``grid_small``, ``grid_large``)."""

    def __init__(self, params: dict):
        from ringlab.conjecture import GridSpec, check_conjectures_grid

        self._check_grid = check_conjectures_grid
        self.spec = GridSpec(
            k_values=tuple(params["k"]),
            n_values=tuple(params["n"]),
            trials=params["trials"],
            seed=params["seed"],
        )
        cells = len(self.spec.cells())
        self.units = 2 * cells
        self.size = {"cells": cells, "trials": self.units * self.spec.trials}
        self._first_counts: dict | None = None

    def run(self, tracer: Tracer):
        return self._check_grid(self.spec, workers=1)

    def check(self, cells) -> list[str]:
        problems = {}
        counts = {}
        for cell in cells:
            for model, est in (("reg", cell.p_reg), ("bin", cell.p_bin)):
                key = (model, cell.k, cell.n)
                counts[key] = est.failures
                exact = EXACT_N4.get((model, cell.k)) if cell.n == 4 else None
                if est.trials != self.spec.trials or not 0 <= est.failures <= est.trials:
                    problems[key] = f"{key}: {est.failures} failures of {est.trials} trials"
                elif exact == 0.0 and est.failures:
                    problems[key] = f"{key}: {est.failures} failures, exact probability is 0"
                elif exact:
                    low, high = _wilson(est.failures, est.trials, WIDE_Z)
                    if not low <= exact <= high:
                        problems[key] = f"{key}: exact {exact} outside [{low:.4f}, {high:.4f}]"
        if self._first_counts is None:
            self._first_counts = counts
        for key in self._first_counts.keys() | counts.keys():
            if counts.get(key) != self._first_counts.get(key):
                problems.setdefault(key, f"{key}: counts differ between repeats of one seed")
        return list(problems.values())

    def counters(self, tracer: Tracer) -> dict[str, float]:
        return {}


class Campaign:
    """Passive trivial and core campaigns, then a black-marble core campaign."""

    USERS = 40
    K = 3

    def __init__(self, params: dict):
        from ringlab.adversary import BlackMarbleConfig, run_campaign
        from ringlab.graph import Partition
        from ringlab.samplers import RandomSource, Regular, SamplerConfig

        self._run_campaign = run_campaign
        # chunk 4 with k 3: every ring is its whole chunk, so G = core(G)
        passive = SamplerConfig(Partition.equal_chunks(self.USERS, 4), Regular(self.K))
        active = SamplerConfig(Partition.equal_chunks(self.USERS, 8), Regular(self.K))
        trials = params["trials"]
        self.campaigns = [
            ("trivial", passive, "trivial", trials[0], None, RandomSource(params["seeds"][0])),
            ("core", passive, "core", trials[1], None, RandomSource(params["seeds"][1])),
            ("black_marble", active, "core", trials[2], BlackMarbleConfig(0.25),
             RandomSource(params["seeds"][2])),
        ]
        self.units = len(self.campaigns)
        self.size = {"campaigns": self.units, "trials": sum(trials)}
        self._slices: list[tuple[str, int, int, int]] = []

    def run(self, tracer: Tracer):
        results = []
        self._slices = []
        for label, config, adversary, trials, marble, rng in self.campaigns:
            lo = len(tracer.spans)
            results.append(tracer.call(
                "adversary.trial", self._run_campaign,
                config, self.USERS, adversary, trials, rng, marble=marble,
            ))
            self._slices.append((label, lo, len(tracer.spans), trials))
        return results

    def check(self, results) -> list[str]:
        problems = []
        p = 1.0 / (self.K + 1)
        for (label, *_), result in zip(self.campaigns, results):
            s = result.success
            slack = 4.0 * math.sqrt(p * (1 - p) / s.trials)
            mismatches = result.core_mismatch.failures
            if label == "trivial" and abs(s.estimate - p) > slack:
                problems.append(f"trivial: success {s.estimate} not within {slack:.4f} of {p}")
            elif label == "core" and s.estimate > p + slack:
                problems.append(f"core: success {s.estimate} above {p} + {slack:.4f}")
            elif label in ("trivial", "core") and mismatches:
                problems.append(f"{label}: {mismatches} core mismatches, expected 0")
        return problems

    def counters(self, tracer: Tracer) -> dict[str, float]:
        return {
            name: tracer.count(layer, lo, hi) / trials
            for label, lo, hi, trials in self._slices
            for name, layer in COUNTERS.items()
            if name.endswith(f".{label}")
        }


class CoreCli:
    """``ringlab core FILE --format csv --out OUT`` through ``cli.main``."""

    def __init__(self, params: dict):
        from ringlab.cli import build_parser, main

        build_parser()  # the config object of this workload
        self._main = main
        self.argv = ["core", params["edge_list"], "--format", "csv", "--out", params["out"]]
        self.out = params["out"]
        self.n_rings = params["rings"]
        self.expected_sha256 = params["expected_sha256"]
        self.units = 1
        self.size = {"users": params["users"], "rings": params["rings"], "edges": params["edges"]}

    def run(self, tracer: Tracer):
        return tracer.call("cli.output", self._main, self.argv)

    def check(self, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        with open(self.out, "rb") as fh:
            data = fh.read()
        rows = data.decode().splitlines()[1:]
        if len(rows) != self.n_rings:
            return [f"{len(rows)} CSV rows for {self.n_rings} rings"]
        if any(int(row.split(",")[1]) < 1 for row in rows):
            return ["a ring has core degree 0"]
        if hashlib.sha256(data).hexdigest() != self.expected_sha256:
            return ["output differs from the reference core"]
        return []

    def counters(self, tracer: Tracer) -> dict[str, float]:
        invocations = tracer.count("cli.output")
        return {"cli.matchings_per_invocation": tracer.count("graph.matching") / invocations}


WORKLOADS = {"grid_small": Grid, "grid_large": Grid, "campaign": Campaign, "core_cli": CoreCli}
