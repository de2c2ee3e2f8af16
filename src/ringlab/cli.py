"""Command-line front end.

Subcommands: ``core`` (analyse an edge-list file), ``conjecture`` (run the
digraph grid and write CSV), ``simulate`` (experiment campaigns),
``recommend`` (ring-size recommendation), ``entropy`` (anonymity in nats).

Results go to stdout (or the --out file), diagnostics to stderr.  Exit
codes: 0 success, 2 usage or parse error, 3 invalid input graph.  Every
run is a deterministic function of its flags and seed; the worker count
never changes any output byte.

Each handler imports the engine modules it runs (``samplers``,
``adversary``, ``conjecture``, ``entropy``), so ``import ringlab.cli`` and a
``core`` run load neither them nor ``numpy.random``.

Errors take one path.  A handler ``_cmd_*`` returns nothing and raises on
failure: :class:`_UsageError` for a bad flag or a file that cannot be
opened, :class:`_ParseError` for a malformed input file, and the library's
:class:`~ringlab.errors.RinglabError` as it comes.  :func:`main` alone
turns each into its stderr line and exit code; a failed ``--out`` run
leaves the previous file as it was.
"""
from __future__ import annotations

import argparse
import errno
import functools
import io
import os
import re
import sys
import warnings
from math import ceil
from typing import TYPE_CHECKING, Callable, Iterator, TextIO

import numpy as np

from .core import BRUTE_FORCE_USER_CAP, _core_degrees
from .errors import IndexOutOfRange, NoFeasibleK, NotATransactionGraph, RinglabError
from .graph import Partition, TransactionGraph
from .stats import format_number

if TYPE_CHECKING:
    from .entropy import SignerDistribution
    from .samplers import Binomial, Regular

__all__ = ["main", "entrypoint", "parse_edge_list"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_GRAPH = 3

THREADS_ENV_VAR = "RING_LAB_THREADS"

# The largest sampled instance: the ring memberships one ``simulate`` trial
# can hold (users x chunk size), the in-edges of the largest ``conjecture``
# digraph (largest k x largest n) and the one ``entropy`` chunk.  Larger
# requests are rejected before anything is allocated.
INSTANCE_CAP = 2**22


class _ParseError(Exception):
    """A malformed input file at ``path:line``; :func:`main` adds ``parse error: ``."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


class _UsageError(Exception):
    """A bad flag or a file that cannot be opened, found before any work."""


def _write_output(path: str, write: Callable[[TextIO], None]) -> None:
    """Call ``write(fh)``, with ``fh`` writing the output file ``path``.

    The output goes to a new file beside ``path`` that replaces it when
    ``write`` returns and is deleted when it raises, so a failed run leaves
    an existing file as it was.  An existing ``path`` that is not a regular
    file (a device such as ``/dev/stdout``, a pipe, a symlink) is written in
    place.  Raises :class:`_UsageError` before ``write`` runs when the
    output cannot be opened.
    """
    in_place = os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path))
    head, tail = os.path.split(path)
    tmp = path if in_place else os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w" if in_place else "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            write(fh)
    except BaseException:
        if not in_place:
            os.unlink(tmp)
        raise
    if not in_place:
        os.replace(tmp, path)


def _read(parse: Callable[..., object], path: str, *args):
    """``parse(path, *args)``; a file that cannot be read raises :class:`_UsageError`."""
    try:
        return parse(path, *args)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _data_lines(path: str) -> Iterator[tuple[int, str]]:
    """Line number and content of each line of a UTF-8 text file that holds data.

    ``#`` starts a comment and blank lines are skipped; lines end as in
    universal-newline mode.  A file that is not UTF-8 raises
    :class:`_ParseError` at the line of its first undecodable byte.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = io.StringIO(raw[: exc.start].decode("utf-8"), newline=None).read()
        raise _ParseError(
            path, head.count("\n") + 1,
            f"byte 0x{raw[exc.start]:02x} starts no valid UTF-8 sequence",
        ) from None
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield line_no, line


# What np.loadtxt accepts as an int64 field: ASCII digits, optional sign.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_edge_list(path: str) -> TransactionGraph:
    """Read the edge-list format: header ``n_users n_rings``, then one
    ``user ring`` pair per line; ``#`` comments and blank lines ignored.

    The whole file is read by one ``np.loadtxt`` call; a missing file raises
    the ``FileNotFoundError`` that ``open`` would.  Any file it rejects or
    reads into something other than a non-negative header plus pairs goes
    through :func:`_scan_edge_list`, which names the first bad line; a range
    or duplicate error names the line of its edge.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file warns; the checks below catch it
            rows = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
    except FileNotFoundError:  # numpy's own text repeats the path
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path) from None
    except ValueError:  # malformed line, ragged columns or a value beyond int64
        rows = None
    if rows is None or rows.shape[1] != 2 or len(rows) == 0 or (rows[0] < 0).any():
        rows = _scan_edge_list(path)[1]
    try:
        return TransactionGraph(rows[0][0], rows[0][1], rows[1:])
    except (IndexOutOfRange, ValueError) as exc:
        line_nos = _scan_edge_list(path)[0]
        raise _ParseError(path, line_nos[1 + exc.edge_index], str(exc)) from exc


def _scan_edge_list(path: str) -> tuple[list[int], list[tuple[int, int]]]:
    """Line-by-line reading of an edge-list file, for the error paths.

    Raises :class:`_ParseError` at the first line that is not two integers
    (the grammar ``np.loadtxt`` accepts), at a negative header and when no
    header exists.  Otherwise returns the line number and the two integers
    of each data line, header first; values beyond int64 stay Python ints.
    """
    line_nos: list[int] = []
    rows: list[tuple[int, int]] = []
    for line_no, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2 or not all(map(_INTEGER.fullmatch, parts)):
            raise _ParseError(path, line_no, f"expected two integers, got {line!r}")
        a, b = int(parts[0]), int(parts[1])
        if not rows and (a < 0 or b < 0):
            raise _ParseError(path, line_no, "negative counts in header")
        line_nos.append(line_no)
        rows.append((a, b))
    if not rows:
        raise _ParseError(path, 1, "missing 'n_users n_rings' header")
    return line_nos, rows


def _resolve_threads(flag_value: int | None) -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value >= 1:
            return value
    if flag_value is not None and flag_value >= 1:
        return flag_value
    return os.cpu_count() or 1


# -- core ----------------------------------------------------------------------


# Rows go out this many to a ``write``: one write per row costs a call per
# line, and one write of the whole report holds all of it in memory at once.
_ROWS_PER_WRITE = 4096


def _write_rows(out, n_rows: int, rows: Callable[[int, int], list[str]]) -> None:
    """Write rows ``0..n_rows - 1`` to ``out``, ``rows(a, b)`` giving rows ``a..b - 1``."""
    for a in range(0, n_rows, _ROWS_PER_WRITE):
        out.write("".join(rows(a, min(a + _ROWS_PER_WRITE, n_rows))))


def _cmd_core(args: argparse.Namespace, out) -> None:
    """Both formats straight from the arrays of one core pass, with no report object.

    A ring is deanonymised when its core degree is 1.  The text lists the
    removed edges ordered by user, then ring, and the sole user of each
    deanonymised ring.
    """
    graph = _read(parse_edge_list, args.input)
    users, rings, flags, degrees = _core_degrees(graph)
    if args.format == "csv":
        out.write("ring_index,core_degree,deanonymised\n")
        _write_rows(out, graph.n_rings, lambda a, b: [
            f"{r},1,true\n" if d == 1 else f"{r},{d},false\n"
            for r, d in enumerate(degrees[a:b].tolist(), a)
        ])
        return
    removed = ~flags
    removed_users, removed_rings = users[removed], rings[removed]
    order = np.lexsort((removed_rings, removed_users))
    removed_users, removed_rings = removed_users[order], removed_rings[order]
    sole = flags & (degrees == 1)[rings]
    sole_users = np.full(graph.n_rings, -1, dtype=users.dtype)
    sole_users[rings[sole]] = users[sole]
    out.write(f"# seed {args.seed}\n")
    out.write(
        f"graph users={graph.n_users} rings={graph.n_rings} edges={graph.edge_count}\n"
    )
    out.write(f"core edges={graph.edge_count - order.size} removed={order.size}\n")
    _write_rows(out, order.size, lambda a, b: [
        f"removed_edge user={u} ring={r}\n"
        for u, r in zip(removed_users[a:b].tolist(), removed_rings[a:b].tolist())
    ])
    _write_rows(out, graph.n_rings, lambda a, b: [
        f"ring index={r} core_degree=1 deanonymised=true sole_user={u}\n" if d == 1
        else f"ring index={r} core_degree={d} deanonymised=false\n"
        for r, d, u in zip(range(a, b), degrees[a:b].tolist(), sole_users[a:b].tolist())
    ])
    out.write(f"deanonymised_rings count={np.count_nonzero(sole)}\n")


# -- conjecture ------------------------------------------------------------------


def _cmd_conjecture(args: argparse.Namespace, out) -> None:
    from . import conjecture as conj

    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    if args.k_min < 1 or args.k_min > args.k_max:
        raise _UsageError("need 1 <= --k-min <= --k-max")
    if args.n_min < 2 or args.n_min > args.n_max:
        raise _UsageError("need 2 <= --n-min <= --n-max")
    n_values = []
    n = args.n_min
    while n <= args.n_max:
        n_values.append(n)
        n *= 2
    # cells() keeps only k < n; k_min stays so that a grid without cells is
    # still a valid spec
    k_top = max(args.k_min, min(args.k_max, n_values[-1] - 1))
    if k_top * n_values[-1] > INSTANCE_CAP:
        raise _UsageError(
            f"k x n = {k_top} x {n_values[-1]} in-edges exceeds the instance cap of "
            f"{INSTANCE_CAP}"
        )
    spec = conj.GridSpec(
        k_values=tuple(range(args.k_min, k_top + 1)),
        n_values=tuple(n_values),
        trials=args.trials,
        seed=args.seed,
    )
    workers = _resolve_threads(args.threads)
    cells: list[conj.GridCell] = []

    def write_csv(fh: TextIO) -> None:
        cells.extend(conj.check_conjectures_grid(spec, workers=workers))
        conj.write_grid_csv(cells, fh)

    _write_output(args.out, write_csv)
    out.write(f"# seed {args.seed}\n")
    out.write(
        f"grid k={args.k_min}..{args.k_max} n={n_values[0]}..{n_values[-1]} "
        f"trials={args.trials} cells={len(cells)}\n"
    )
    bad1 = [c for c in cells if not c.conj1_ok]
    bad2 = [c for c in cells if not c.conj2_ok]
    for c in bad1:
        out.write(f"conj1_violation k={c.k} n={c.n}\n")
    for c in bad2:
        out.write(f"conj2_violation k={c.k} n={c.n}\n")
    out.write(f"conj1_violations {len(bad1)}\n")
    out.write(f"conj2_violations {len(bad2)}\n")
    out.write(f"wrote {args.out}\n")


# -- simulate --------------------------------------------------------------------


def _sampler_kind(
    args: argparse.Namespace, k_low: int, size_checks: list[tuple[bool, str]]
) -> tuple[Regular | Binomial, str]:
    """The sampler that ``--k`` or ``--p`` names, and its text in the output header.

    Raises :class:`_UsageError` with the message of the first failed check,
    in this order: exactly one of ``--k``/``--p`` is given; each
    ``(failed, message)`` pair of ``size_checks``; ``k_low <= --k <
    --chunk-size`` or ``0 <= --p <= 1``.
    """
    from .samplers import Binomial, Regular

    checks = [
        ((args.k is None) == (args.p is None), "exactly one of --k / --p is required"),
        *size_checks,
        (
            args.k is not None and not k_low <= args.k < args.chunk_size,
            f"need {k_low} <= --k < --chunk-size",
        ),
        (args.p is not None and not 0.0 <= args.p <= 1.0, "need 0 <= --p <= 1"),
    ]
    for failed, message in checks:
        if failed:
            raise _UsageError(message)
    if args.k is not None:
        return Regular(args.k), f"sampler=regular k={args.k}"
    return Binomial(args.p), f"sampler=binomial p={format_number(args.p)}"


def _cmd_simulate(args: argparse.Namespace, out) -> None:
    from .adversary import BlackMarbleConfig, run_campaign
    from .samplers import RandomSource, SamplerConfig

    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    memberships = args.users * args.chunk_size
    kind, kind_txt = _sampler_kind(args, 0, [
        (args.users < 1, "--users must be >= 1"),
        (args.chunk_size < 1, "--chunk-size must be >= 1"),
        (
            args.chunk_size >= 1 and args.users % args.chunk_size != 0,
            "--chunk-size must divide --users",
        ),
        (
            memberships > INSTANCE_CAP,
            f"--users x --chunk-size = {memberships} ring memberships "
            f"exceeds the instance cap of {INSTANCE_CAP}",
        ),
    ])
    if args.adversary == "matching_count" and args.users > BRUTE_FORCE_USER_CAP:
        # before the partition is built: the campaign's own cap check comes after
        raise _UsageError(
            f"matching_count is exhaustive; --users must be <= {BRUTE_FORCE_USER_CAP}"
        )
    beta = args.beta or 0.0
    if not 0.0 <= beta < 1.0:
        raise _UsageError("need 0 <= --beta < 1")
    marble = BlackMarbleConfig(beta) if beta > 0.0 else None
    config = SamplerConfig(Partition.equal_chunks(args.users, args.chunk_size), kind)
    result = run_campaign(
        config,
        args.users,
        args.adversary,
        args.trials,
        RandomSource(args.seed),
        marble=marble,
    )
    out.write(f"# seed {args.seed}\n")
    out.write(
        f"simulate users={args.users} chunk_size={args.chunk_size} {kind_txt} "
        f"adversary={args.adversary} trials={args.trials} beta={format_number(beta)}\n"
    )
    s = result.success
    out.write(
        f"success trials={s.trials} successes={s.failures} estimate={format_number(s.estimate)} "
        f"ci_low={format_number(s.ci_low)} ci_high={format_number(s.ci_high)}\n"
    )
    c = result.core_mismatch
    out.write(
        f"core_mismatch trials={c.trials} mismatches={c.failures} "
        f"estimate={format_number(c.estimate)} "
        f"ci_low={format_number(c.ci_low)} ci_high={format_number(c.ci_high)}\n"
    )


# -- recommend -------------------------------------------------------------------


def _cmd_recommend(args: argparse.Namespace, out) -> None:
    from .recommend import minimal_decoys_numeric, recommend as make_recommendation

    if (args.chunks is None) != (args.chunk_size is None):
        raise _UsageError("--chunks and --chunk-size must be given together")
    beta = args.beta or 0.0
    result = make_recommendation(args.users, beta=beta)
    k_numeric: int | str | None = None
    if args.chunks is not None:
        try:
            k_numeric = minimal_decoys_numeric(args.chunks, args.chunk_size)
        except NoFeasibleK:
            k_numeric = "infeasible"
    k = result.k_closed_form
    if args.csv:
        out.write("users,beta,n_chunks,chunk_size,k_closed_form,k_numeric,security\n")
        row = [
            str(args.users),
            format_number(beta),
            "" if args.chunks is None else str(args.chunks),
            "" if args.chunk_size is None else str(args.chunk_size),
            str(k),
            "" if k_numeric is None else str(k_numeric),
            format_number(result.target_security),
        ]
        out.write(",".join(row) + "\n")
        return
    out.write(f"# seed {args.seed}\n")
    out.write(f"recommend users={args.users} beta={format_number(beta)}\n")
    if beta > 0.0:
        out.write(f"k_closed_form {k} (heuristic corrupted-user adjustment)\n")
    else:
        out.write(f"k_closed_form {k}\n")
    out.write(f"security 2/{k + 1} = {format_number(result.target_security)}\n")
    if args.chunks is not None:
        out.write(
            f"chunks n_chunks={args.chunks} chunk_size={args.chunk_size}\n"
        )
        out.write(f"k_numeric {k_numeric}\n")


# -- entropy ---------------------------------------------------------------------


def _parse_weights_file(path: str, expected: int) -> SignerDistribution:
    from .entropy import SignerDistribution

    weights: list[float] = []
    for line_no, line in _data_lines(path):
        try:
            weights.append(float(line))
        except ValueError:
            raise _ParseError(path, line_no, f"expected a number, got {line!r}") from None
    if len(weights) != expected:
        raise _ParseError(path, 1, f"expected {expected} weights, got {len(weights)}")
    try:
        return SignerDistribution(weights)
    except RinglabError as exc:
        raise _ParseError(path, 1, str(exc)) from exc


def _cmd_entropy(args: argparse.Namespace, out) -> None:
    from . import entropy as ent
    from .samplers import SamplerConfig

    kind, kind_txt = _sampler_kind(args, 1, [
        (args.chunk_size < 1, "--chunk-size must be >= 1"),
        (
            args.chunk_size > INSTANCE_CAP,
            f"--chunk-size {args.chunk_size} exceeds the instance cap of {INSTANCE_CAP}",
        ),
    ])
    partition = Partition.single(args.chunk_size)
    config = SamplerConfig(partition, kind)
    if args.weights is not None:
        dist = _read(_parse_weights_file, args.weights, args.chunk_size)
        weights_txt = args.weights
    else:
        dist = ent.SignerDistribution.uniform(args.chunk_size)
        weights_txt = "uniform"
    deviation = ent.DistributionDeviation.from_distribution(partition, dist)
    out.write(f"# seed {args.seed}\n")
    out.write(f"entropy chunk_size={args.chunk_size} {kind_txt} weights={weights_txt}\n")
    if args.k is not None:
        bound = ent.anonymity_bound_regular(args.k, deviation)
        out.write(f"alpha_bound_nats {format_number(bound)} (k={args.k})\n")
    else:
        # largest integer k with k < p * chunk_size
        k_bound = ceil(args.p * args.chunk_size) - 1
        if k_bound >= 1:
            bound = ent.anonymity_bound_binomial(k_bound, deviation, config)
            out.write(f"alpha_bound_nats {format_number(bound)} (k={k_bound})\n")
        else:
            out.write("alpha_bound_nats unavailable (p*chunk_size <= 1)\n")
    if args.exact:
        alpha = ent.anonymity_exact(config, dist)
        out.write(f"alpha_exact_nats {format_number(alpha)}\n")


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built at the first call and shared after it.

    ``parse_args`` leaves the parser as it was, so one :func:`main` call
    cannot change the next; building it at import would add its cost to
    every ``import ringlab.cli``.
    """
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Graph-analysis resistance of ring samplers: cores, experiments, "
        "digraph Monte Carlo, recommendations, and anonymity entropy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_core = sub.add_parser("core", help="core analysis of an edge-list file")
    p_core.add_argument("input", help="edge-list file (header 'n_users n_rings')")
    p_core.add_argument("--format", choices=("text", "csv"), default="text")
    p_core.add_argument("--seed", type=int, default=0)
    p_core.add_argument("--out", default=None, help="write output here instead of stdout")

    p_conj = sub.add_parser("conjecture", help="digraph connectivity grid -> CSV")
    p_conj.add_argument("--k-min", type=int, default=1)
    p_conj.add_argument("--k-max", type=int, default=16)
    p_conj.add_argument("--n-min", type=int, default=4)
    p_conj.add_argument("--n-max", type=int, default=4096)
    p_conj.add_argument("--trials", type=int, default=8000)
    p_conj.add_argument("--seed", type=int, default=0)
    p_conj.add_argument("--out", default="conjecture.csv")
    p_conj.add_argument("--threads", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="adversary success experiment campaign")
    p_sim.add_argument("--users", type=int, required=True)
    p_sim.add_argument("--chunk-size", type=int, required=True)
    p_sim.add_argument("--k", type=int, default=None)
    p_sim.add_argument("--p", type=float, default=None)
    # adversary.ADVERSARIES, written out so that the parser loads no engine
    p_sim.add_argument(
        "--adversary", choices=("trivial", "core", "matching_count"), default="trivial"
    )
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--beta", type=float, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None)

    p_rec = sub.add_parser("recommend", help="ring-size recommendation")
    p_rec.add_argument("--users", type=int, required=True)
    p_rec.add_argument("--beta", type=float, default=None)
    p_rec.add_argument("--chunks", type=int, default=None)
    p_rec.add_argument("--chunk-size", type=int, default=None)
    p_rec.add_argument("--csv", action="store_true")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--out", default=None)

    p_ent = sub.add_parser("entropy", help="anonymity of one chunk in nats")
    p_ent.add_argument("--chunk-size", type=int, required=True)
    p_ent.add_argument("--k", type=int, default=None)
    p_ent.add_argument("--p", type=float, default=None)
    p_ent.add_argument("--weights", default=None, help="file with one weight per line")
    p_ent.add_argument("--exact", action="store_true")
    p_ent.add_argument("--seed", type=int, default=0)
    p_ent.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "core": _cmd_core,
    "conjecture": _cmd_conjecture,
    "simulate": _cmd_simulate,
    "recommend": _cmd_recommend,
    "entropy": _cmd_entropy,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    handler = _COMMANDS[args.command]
    out_path = getattr(args, "out", None) if args.command != "conjecture" else None
    # the one table of failures: each class's stderr line and exit code
    try:
        if out_path:
            _write_output(out_path, lambda fh: handler(args, fh))
        else:
            handler(args, sys.stdout)
    except _ParseError as exc:
        message, code = f"parse error: {exc}", EXIT_USAGE
    except NotATransactionGraph as exc:
        message, code = str(exc), EXIT_BAD_GRAPH
    except (_UsageError, RinglabError) as exc:
        message, code = str(exc), EXIT_USAGE
    else:
        return EXIT_OK
    print(message, file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())
