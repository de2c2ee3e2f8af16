"""Strong-connectivity failure probabilities for the two random digraph models.

Estimates p_reg(k, n) = Pr[regular digraph not strongly connected] and
p_bin(k, n) = Pr[binomial digraph with p = k/(n-1) not strongly connected]
by Monte Carlo, and evaluates the conjectured chain

    p_reg(k, n)  <=  p_bin(k, n)  <=  1 - exp(-2 * exp(ln n - p n))

on a (k, n) grid.  A verdict is ``False`` only when the 95% Wilson
interval shows a violation: the first inequality fails when the regular
estimate exceeds the binomial upper limit, the second when the binomial
lower limit exceeds the closed-form bound.

A campaign on ``RandomSource(seed, base)`` runs its trials in the blocks
of ``samplers._trial_blocks``, ``max(1, 2048 // n)`` trials each, block j
drawing from stream ``base + j`` alone, under stream layout 3 (see
``samplers``).  A block draws its trials' in-degrees first, in one call.
With n >= 2, a node of in-degree 0 makes the digraph not strongly
connected, so such a trial is counted as a failure there and takes no
subset words.  The block's other trials take the main-run words of their
subset draws in one call; one bounded-integer pass turns them into the
block's Floyd draw, a rejected value taking its words from the block's
overflow run, one Floyd resolve gives its in-neighbour table and one
strong-connectivity call reads that table for the whole block.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .errors import InvalidParams
from .graph import _strongly_connected_graphs
from .samplers import (
    RandomSource,
    _binomial_draw,
    _digraph_block,
    _DigraphDraw,
    _regular_draw,
    _trial_blocks,
)
from .stats import EstimateResult, format_number, graham_pike_limit

__all__ = [
    "GridSpec",
    "GridCell",
    "estimate_not_sc_regular",
    "estimate_not_sc_binomial",
    "binomial_bound",
    "graham_pike_limit",
    "check_conjectures_grid",
    "write_grid_csv",
    "LOW_CONFIDENCE_THRESHOLD",
]

# Point estimates below this are kept in the CSV but flagged as unstable
# at the default trial count.
LOW_CONFIDENCE_THRESHOLD = 1e-3


def _estimate_not_sc(n: int, trials: int, rng: RandomSource, draw: _DigraphDraw) -> EstimateResult:
    """Fraction of ``trials`` digraphs that are not strongly connected.

    In each block of :func:`~ringlab.samplers._trial_blocks`, ``draw``
    makes the block's draws (:meth:`~ringlab.samplers._DigraphDraw.block`):
    the trials that their in-degrees leave open have their subsets
    resolved together and their graphs checked by one kernel call; the
    others are failures.
    """
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    connected = 0
    for size, stream in _trial_blocks(rng, trials, n):
        # no name holds the draw, whose buffer becomes the table, into the next block
        sc = _strongly_connected_graphs(
            *_digraph_block(n, *draw.block(stream, size, decide=True))
        )
        connected += int(np.count_nonzero(sc))
    return EstimateResult.from_counts(trials, trials - connected)


def estimate_not_sc_regular(
    k: int, n: int, trials: int, rng: RandomSource
) -> EstimateResult:
    """Fraction of k-in-degree regular digraphs that are not strongly connected."""
    return _estimate_not_sc(n, trials, rng, _regular_draw(n, k))


def estimate_not_sc_binomial(
    p: float, n: int, trials: int, rng: RandomSource
) -> EstimateResult:
    """Fraction of p-binomial digraphs that are not strongly connected."""
    return _estimate_not_sc(n, trials, rng, _binomial_draw(n, p))


def binomial_bound(k: float, n: int) -> float:
    """Conjectured upper bound 1 - exp(-2 exp(ln n - p n)) at p = k/(n-1).

    Real-valued k is accepted.  It is :func:`graham_pike_limit` at
    c = p n - ln n, whose expm1 keeps full relative precision near 0.
    """
    if n < 2:
        raise InvalidParams(f"need n >= 2, got n={n}")
    p = k / (n - 1)
    return graham_pike_limit(p * n - math.log(n))


@dataclass(frozen=True)
class GridSpec:
    """Parameter grid for the conjecture campaigns.

    Cells with k >= n cannot be sampled (the regular model needs k < n and
    the matched binomial probability would exceed 1); :meth:`cells` skips
    them, so grids may freely combine small n with large k.
    """

    k_values: tuple[int, ...]
    n_values: tuple[int, ...]
    trials: int = 8000
    seed: int = 0

    def __post_init__(self):
        if not self.k_values or min(self.k_values) < 1:
            raise InvalidParams("k values must be positive")
        if not self.n_values or min(self.n_values) < 2:
            raise InvalidParams("n values must be >= 2")
        if not 1 <= self.trials < (1 << 32):
            raise InvalidParams("trials must be in [1, 2^32)")

    @classmethod
    def full_grid(cls, trials: int = 8000, seed: int = 0) -> "GridSpec":
        """The figure-scale grid: k from 1 to 16, n from 2^2 to 2^12."""
        return cls(
            k_values=tuple(range(1, 17)),
            n_values=tuple(2**e for e in range(2, 13)),
            trials=trials,
            seed=seed,
        )

    def cells(self) -> list[tuple[int, int]]:
        return [(k, n) for k in self.k_values for n in self.n_values if k < n]


@dataclass(frozen=True)
class GridCell:
    """Both model estimates plus the conjecture verdicts for one (k, n) cell."""

    k: int
    n: int
    p: float
    p_reg: EstimateResult
    p_bin: EstimateResult
    bound: float
    conj1_ok: bool
    conj2_ok: bool


def _grid_task(args: tuple[int, int, str, int, int, int]) -> EstimateResult:
    seed, stream_base, model, k, n, trials = args
    rng = RandomSource(seed, stream_base)
    if model == "reg":
        return estimate_not_sc_regular(k, n, trials, rng)
    return estimate_not_sc_binomial(k / (n - 1), n, trials, rng)


def check_conjectures_grid(spec: GridSpec, workers: int = 1) -> list[GridCell]:
    """Estimate both models on every feasible cell and test the conjectures.

    Each (cell, model) campaign owns stream ids ``index << 32 | block``,
    so the result is a pure function of the grid parameters regardless
    of ``workers``.  The pool never gets more processes than there are
    tasks or CPUs.
    """
    cells = spec.cells()
    tasks = []
    for ci, (k, n) in enumerate(cells):
        for mi, model in enumerate(("reg", "bin")):
            stream_base = (2 * ci + mi) << 32
            tasks.append((spec.seed, stream_base, model, k, n, spec.trials))
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_grid_task, tasks))
    else:
        results = [_grid_task(t) for t in tasks]
    out: list[GridCell] = []
    for ci, (k, n) in enumerate(cells):
        reg = results[2 * ci]
        bin_ = results[2 * ci + 1]
        bound = binomial_bound(k, n)
        out.append(
            GridCell(
                k=k,
                n=n,
                p=k / (n - 1),
                p_reg=reg,
                p_bin=bin_,
                bound=bound,
                conj1_ok=reg.estimate <= bin_.ci_high,
                conj2_ok=bin_.ci_low <= bound,
            )
        )
    return out


GRID_CSV_HEADER = (
    "model,k,n,p,trials,failures,estimate,ci_low,ci_high,"
    "bound,conj1_ok,conj2_ok,low_confidence"
)


def write_grid_csv(cells: Iterable[GridCell], out: TextIO) -> None:
    """One row per model per cell, decimal dot, 12 significant digits, LF."""
    out.write(GRID_CSV_HEADER + "\n")
    for cell in cells:
        for model, est in (("reg", cell.p_reg), ("bin", cell.p_bin)):
            low_conf = est.estimate < LOW_CONFIDENCE_THRESHOLD
            row = [
                model,
                str(cell.k),
                str(cell.n),
                format_number(cell.p),
                str(est.trials),
                str(est.failures),
                format_number(est.estimate),
                format_number(est.ci_low),
                format_number(est.ci_high),
                format_number(cell.bound),
                "true" if cell.conj1_ok else "false",
                "true" if cell.conj2_ok else "false",
                "true" if low_conf else "false",
            ]
            out.write(",".join(row) + "\n")
