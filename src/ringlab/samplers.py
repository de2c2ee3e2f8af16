"""Ring samplers, the induced transaction-graph sampler, and random digraphs.

Randomness is organised as counter-based Philox streams keyed by
``(seed, stream_id)``.  Campaigns give trial t its own stream, so results
are reproducible bit-for-bit regardless of how trials are scheduled
across workers.

All subset drawing funnels through one Floyd kernel: one bounded integer
draw, which :func:`_floyd_resolve` turns, all rows in lockstep, into a
uniform without-replacement subset of each row's candidate pool.  Rings
and transaction graphs make the draw with :func:`_floyd_bound` and
:func:`_floyd_draw` (:func:`_floyd_subsets` is the three together, used
by :func:`sample_ring`).  The digraph models, where every pool is n - 1
and so every row of the draw has one bound, make it with
:func:`_row_draw`, which reads raw Philox words and gives the same
integers.  The regular sampler uses constant subset sizes, so a campaign
whose pools are constant too builds its bounds once; the binomial
sampler first draws per-row binomial sizes and reuses the same kernel.
A digraph's draws are two steps from one generator (:class:`_DigraphDraw`):
its in-degrees, then the subset draw given them.  The public samplers
always make both; the conjecture grid skips the second for a trial whose
in-degrees already decide it.
Sampled objects come in blocks that draw one stream at a time and
resolve together, each object's draws being the ones it would make
alone: every random digraph comes from :func:`_digraph_block` and every
transaction graph from :func:`_graph_block`, whose block is one
``TransactionGraph``, the disjoint union of its graphs.  Campaigns pass a
block of trials, the public samplers a block of one.  Both campaigns, the
conjecture grid and the adversary game, take their blocks from
:func:`_trial_blocks`, about ``_BLOCK_NODES`` nodes each, and check each
block with one call.  A digraph block stays the in-neighbour table that
the Floyd resolve leaves, one column per node, which the grid's
strong-connectivity kernel reads as it is; only the public digraph
samplers flatten it into edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.random import BitGenerator, Generator, Philox

from .errors import InvalidConfig, InvalidParams
from .graph import Digraph, Matching, Partition, TransactionGraph, _offsets, _require_covering

__all__ = [
    "RandomSource",
    "Regular",
    "Binomial",
    "SamplerConfig",
    "sample_ring",
    "sample_transaction_graph",
    "sample_regular_digraph",
    "sample_binomial_digraph",
]

_U64 = (1 << 64) - 1


class RandomSource:
    """Reproducible random stream identified by ``(seed, stream_id)``.

    Two sources constructed with identical fields produce identical draw
    sequences.  The underlying generator is stateful: successive uses of
    the *same* instance continue its stream.
    """

    __slots__ = ("seed", "stream_id", "_generator")

    def __init__(self, seed: int = 0, stream_id: int = 0):
        self.seed = int(seed) & _U64
        self.stream_id = int(stream_id) & _U64
        self._generator: Generator | None = None

    @property
    def generator(self) -> Generator:
        if self._generator is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._generator = Generator(Philox(key=key))
        return self._generator

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"


class _StreamFamily:
    """Cheap per-trial generators for a fixed seed.

    Re-keys a single Philox instance instead of constructing one per
    stream; draws are bit-identical to ``RandomSource(seed, sid).generator``
    (pinned by a unit test).  Not thread-safe; each worker owns its own.
    """

    __slots__ = ("_bitgen", "_gen", "_state")

    def __init__(self, seed: int):
        self._bitgen = Philox(key=np.array([int(seed) & _U64, 0], dtype=np.uint64))
        self._gen = Generator(self._bitgen)
        self._state = self._bitgen.state

    def generator(self, stream_id: int) -> Generator:
        st = self._state
        st["state"]["key"][1] = int(stream_id) & _U64
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st
        return self._gen


def _trial_streams(rng: RandomSource, trials: int) -> Iterator[Generator]:
    """One generator per trial: stream ids ``rng.stream_id + t``.

    Every yield is the same generator object, re-keyed to the next stream,
    so a trial's draws must be finished before the iterator is advanced.
    """
    family = _StreamFamily(rng.seed)
    base = rng.stream_id
    for t in range(trials):
        yield family.generator((base + t) & _U64)


# Nodes per trial block: small graphs share one Floyd resolve and one
# strong-connectivity call; from 1024 nodes up every trial is its own block.
_BLOCK_NODES = 1024


def _trial_blocks(rng: RandomSource, trials: int, n: int) -> Iterator[Iterator[Generator]]:
    """The streams of :func:`_trial_streams` in blocks of ``max(1, _BLOCK_NODES // n)`` trials.

    Each block is an iterator over its trials' generators, to be used up
    before the next block is taken.
    """
    block = max(1, _BLOCK_NODES // n)
    streams = _trial_streams(rng, trials)
    for start in range(0, trials, block):
        yield islice(streams, min(block, trials - start))


# -- subset sampling kernel ---------------------------------------------------


def _floyd_subsets(gen: Generator, pool_sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per row i, a uniform ``counts[i]``-subset of ``range(pool_sizes[i])``.

    Returns a ``(k_max, n)`` int array whose column i holds the chosen
    values in rows ``k_max - counts[i] .. k_max - 1``; unused slots are
    negative.
    All randomness comes from :func:`_floyd_draw`; :func:`_floyd_resolve`
    turns the draw into subsets.
    """
    x = _floyd_draw(gen, _floyd_bound(pool_sizes, counts))
    return _floyd_resolve(x, pool_sizes, counts)


def _floyd_bound(pool_sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exclusive bounds of Floyd's draw, shape ``(k_max, n)``.

    Step s of row i draws from ``[0, pool_sizes[i] - k_max + s]``.  A
    campaign whose pools and counts are the same in every trial builds the
    bound once and passes it to every trial's draw.  The digraph models
    need no such array: their bounds are one per row (:func:`_row_draw`).
    """
    k_max = int(counts.max()) if counts.shape[0] else 0
    steps = np.arange(k_max, dtype=np.int64)[:, None]
    return np.maximum(pool_sizes + (steps - k_max + 1), 1)


def _floyd_draw(gen: Generator, bound: np.ndarray) -> np.ndarray:
    """The one bounded integer draw of Floyd's algorithm, shaped like ``bound``.

    Nothing is drawn when ``bound`` has no rows (``k_max`` is 0).  Rings
    and transaction graphs draw here, through numpy, because their
    generators keep drawing afterwards: :func:`_row_draw` drops the half
    word numpy keeps for the next draw.
    """
    if not bound.shape[0]:
        return np.empty(bound.shape, dtype=np.int64)
    return gen.integers(0, bound, dtype=np.int64)


def _row_draw(gen: Generator, tops: np.ndarray, n: int) -> np.ndarray:
    """``gen.integers(0, tops[:, None], size=(K, n), dtype=np.int64)``, from raw Philox words.

    ``tops`` holds K strictly ascending ``uint64`` bounds in ``[1, 2**32]``,
    one per row.  numpy draws a value below such a bound r with Lemire's
    multiply-shift: one 32-bit word w, the low half of a 64-bit Philox
    word before its high half, gives ``(w * r) >> 32`` unless the low 32
    bits of ``w * r`` fall below ``(2**32 - r) % r``; then the value is
    drawn again from the next word.  A bound of 1 takes no word.  Here
    every product is made at once from one ``random_raw`` block, and a
    rejected word shifts the rest of the draw by one word
    (:func:`_redraw_rejected`).  The result equals numpy's when the
    generator holds no buffered half word, as a fresh or re-keyed one
    does, and is not used afterwards: numpy would keep the unused high
    half of an odd last word for its next draw, and this drops it.
    """
    out = np.zeros((tops.shape[0], n), dtype="<u8")
    first = int(tops.shape[0] and tops[0] == 1)  # a bound of 1 draws 0 from no word
    rows, tops = out[first:], tops[first:]
    if rows.size:
        bitgen = gen.bit_generator
        words = _raw_words(bitgen, (rows.size + 1) // 2)
        np.multiply(words[:rows.size].reshape(rows.shape), tops[:, None], out=rows)
        # a rejection needs a low half below (2**32 - r) % r < r <= tops[-1]
        if rows.view("<u4")[:, ::2].min() < tops[-1]:
            _redraw_rejected(bitgen, words, rows, tops)
    out >>= 32
    return out.view("<i8")


def _raw_words(bitgen: BitGenerator, count: int) -> np.ndarray:
    """``2 * count`` 32-bit words in numpy's order, from ``count`` raw Philox words.

    Stored little-endian, each 64-bit word lists its low half first on any
    host.
    """
    return bitgen.random_raw(count).astype("<u8", copy=False).view("<u4")


def _redraw_rejected(
    bitgen: BitGenerator, words: np.ndarray, rows: np.ndarray, tops: np.ndarray
) -> None:
    """Redo the Lemire products of :func:`_row_draw` past each rejected word, in place.

    ``rows[i, j]`` holds the product of row i's bound and the word of
    element ``i*n + j`` shifted by the words rejected before it.  At the
    first element still rejected, the shift grows by one and the products
    from there on are made again; more raw words are drawn when the shift
    runs past the block.
    """
    n = rows.shape[1]
    size = rows.size
    low = rows.view("<u4")[:, ::2]
    thresholds = (np.uint64(1 << 32) - tops) % tops
    row = shift = 0
    while True:
        bad = np.flatnonzero(low[row:].min(axis=1) < thresholds[row:])
        if not bad.size:
            return
        row += int(bad[0])
        col = int(np.argmax(low[row] < thresholds[row]))
        shift += 1
        if size + shift > words.size:
            words = np.concatenate((words, _raw_words(bitgen, 1)))
        start = row * n + col + shift
        stop = (row + 1) * n + shift
        np.multiply(words[start:stop], tops[row], out=rows[row, col:])
        np.multiply(
            words[stop:size + shift].reshape(-1, n), tops[row + 1:, None], out=rows[row + 1:]
        )


def _stack_draws(draws: list[np.ndarray], width: int) -> np.ndarray:
    """Floyd draws of ``width`` columns each, side by side in one ``(k_max, B*width)`` array.

    A draw with fewer rows fills the last rows of its columns, where
    :func:`_floyd_resolve` reads it as it would alone; the rows above are 0.
    """
    if len(draws) == 1:
        return draws[0]
    k_max = max(xb.shape[0] for xb in draws)
    x = np.zeros((k_max, width * len(draws)), dtype=np.int64)
    for b, xb in enumerate(draws):
        x[k_max - xb.shape[0]:, b * width:(b + 1) * width] = xb
    return x


def _floyd_resolve(x: np.ndarray, pool_sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Floyd's algorithm on a ``(K, n)`` int64 draw, all rows advanced in lockstep.

    Row i takes its ``counts[i]`` values in steps ``K - counts[i] .. K - 1``;
    at step s a drawn value already taken is replaced by the bound
    ``pool_sizes[i] - K + s``.  Because the bound depends on the step only
    through ``s - K``, a column drawn with a smaller ``k_max`` and placed in
    the last ``k_max`` rows resolves exactly as it would alone.  The unused
    slots are marked once, in ``x``, before the steps: slot s becomes
    ``-1 - s``, which equals no drawn value and no other slot of its column,
    so it is never taken or replaced.  The steps compare in the narrowest
    signed integer type that holds the pools, and so the markers (no count
    exceeds its pool, so K does not either), and the resolved subsets are
    returned in that type (``x`` itself when it is int64), the unused slots
    negative.
    """
    k_max = x.shape[0]
    if (counts < k_max).any():
        steps = np.arange(k_max, dtype=np.int64)[:, None]
        np.copyto(x, -1 - steps, where=steps < k_max - counts)
    narrow = np.min_scalar_type(-1 - int(pool_sizes.max(initial=0)))
    y = x.astype(narrow, copy=False)
    last = (pool_sizes - k_max).astype(narrow)  # the step-s bound is last + s
    for s in range(1, k_max):
        ys = y[s]
        np.copyto(ys, last + s, where=(y[:s] == ys).any(axis=0))
    return y


def _skip_self(chosen: np.ndarray, self_pos: np.ndarray) -> np.ndarray:
    """Map pool-relative candidates to indices with position ``self_pos`` removed.

    Negative padding entries pass through unchanged.
    """
    return chosen + (chosen >= self_pos)


# -- sampler configuration ----------------------------------------------------


@dataclass(frozen=True)
class Regular:
    """Fixed decoy count: rings are uniform (k+1)-subsets around the signer."""

    k: int


@dataclass(frozen=True)
class Binomial:
    """Independent decoys: each chunk mate joins the ring with probability p."""

    p: float


class SamplerConfig:
    """A partition of the users plus the decoy rule applied within chunks."""

    __slots__ = ("partition", "kind")

    def __init__(self, partition: Partition, kind: Regular | Binomial):
        if isinstance(kind, Regular):
            if kind.k < 0:
                raise InvalidConfig("decoy count k must be >= 0")
            smallest = min(partition.chunk_sizes())
            if kind.k >= smallest:
                raise InvalidConfig(
                    f"k={kind.k} must be smaller than every chunk (smallest is {smallest})"
                )
        elif isinstance(kind, Binomial):
            if not 0.0 <= kind.p <= 1.0:
                raise InvalidConfig(f"p={kind.p} outside [0, 1]")
        else:
            raise InvalidConfig(f"unknown sampler kind {kind!r}")
        self.partition = partition
        self.kind = kind

    @property
    def n_users(self) -> int:
        return self.partition.n_users

    def __repr__(self) -> str:
        return f"SamplerConfig({self.partition!r}, {self.kind!r})"


def _decoy_counts(config: SamplerConfig, gen: Generator, pools: np.ndarray) -> np.ndarray:
    if isinstance(config.kind, Regular):
        return np.full(pools.shape, config.kind.k, dtype=np.int64)
    return gen.binomial(pools, config.kind.p).astype(np.int64)


def _pool_sizes(partition: Partition, signers: np.ndarray) -> np.ndarray:
    """Decoy pool of each signer: the size of its chunk minus the signer."""
    cids = partition._chunk_of[signers]
    return partition._chunk_start[cids + 1] - partition._chunk_start[cids] - 1


def _decoy_users(partition: Partition, signers: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Users named by the pool-relative subsets ``chosen``, padding as -1.

    Column j of ``chosen`` indexes signer j's chunk with the signer
    skipped.
    """
    starts = partition._chunk_start[partition._chunk_of[signers]]
    local = _skip_self(chosen, partition._pos_in_chunk[signers])
    return np.where(chosen >= 0, partition._chunk_flat[starts + local], -1)


def sample_ring(
    config: SamplerConfig, n_users: int, signer: int, rng: RandomSource
) -> frozenset[int]:
    """One ring for ``signer``: the signer plus decoys from its chunk."""
    if n_users != config.n_users:
        raise InvalidConfig(
            f"config partitions {config.n_users} users, caller declared {n_users}"
        )
    if not 0 <= signer < n_users:
        raise InvalidConfig(f"signer {signer} outside [0, {n_users})")
    part = config.partition
    signers = np.array([signer], dtype=np.int64)
    pools = _pool_sizes(part, signers)
    counts = _decoy_counts(config, rng.generator, pools)
    decoys = _decoy_users(part, signers, _floyd_subsets(rng.generator, pools, counts))
    ring = decoys[decoys >= 0].tolist()
    ring.append(signer)
    return frozenset(ring)


def _graph_draw(
    config: SamplerConfig, m: int
) -> Callable[[Generator], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The draws of one m-signer graph, for every graph of a campaign.

    The returned function makes, from one generator and in this order,
    the signer permutation, the decoy counts (drawn under the binomial
    model only) and the Floyd draw, and returns ``(signers, counts, x)``.
    Under the regular model with equal chunks every pool and count is the
    same in every graph, so the Floyd bound is built here, once.
    """
    n = config.n_users
    part = config.partition
    fixed = None
    if isinstance(config.kind, Regular) and len(set(part.chunk_sizes())) == 1:
        counts = np.full(m, config.kind.k, dtype=np.int64)
        pools = np.full(m, part.chunk_sizes()[0] - 1, dtype=np.int64)
        fixed = counts, _floyd_bound(pools, counts)

    def draw(gen: Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        signers = gen.permutation(n)[:m]
        if fixed is not None:
            counts, bound = fixed
        else:
            pools = _pool_sizes(part, signers)
            counts = _decoy_counts(config, gen, pools)
            bound = _floyd_bound(pools, counts)
        return signers, counts, _floyd_draw(gen, bound)

    return draw


def _graph_block(
    config: SamplerConfig,
    m: int,
    draws: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[TransactionGraph, np.ndarray]:
    """A block of m-signer graphs, one per draw of :func:`_graph_draw`, as one graph.

    Returns ``(union, signed)``.  ``union`` is the disjoint union of the
    block's graphs: user u of graph b is union user ``b*n + u`` (n users
    per graph) and ring j of graph b is union ring ``b*m + j``.
    ``signed[e]`` is the union signer of edge e's ring.  All subsets are
    resolved in one lockstep pass, and the signers are checked by
    :func:`_require_covering` on the union.
    """
    n = config.n_users
    signers = np.concatenate([d[0] for d in draws])
    counts = np.concatenate([d[1] for d in draws])
    x = _stack_draws([d[2] for d in draws], m)
    chosen = _floyd_resolve(x, _pool_sizes(config.partition, signers), counts)
    k_max = x.shape[0]
    rings = np.empty((signers.shape[0], k_max + 1), dtype=np.int64)  # one row per ring
    rings[:, :k_max] = _decoy_users(config.partition, signers, chosen).T
    rings[:, k_max] = signers
    rings.sort(axis=1)  # the -1 padding first, then the members ascending
    sizes = counts + 1
    offset = np.repeat(np.arange(0, len(draws) * n, n), m)  # each ring's graph's first user
    valid = rings >= 0
    rings += offset[:, None]  # union user ids
    users = rings[valid]
    signers += offset
    union = TransactionGraph._from_csr(len(draws) * n, users, _offsets(sizes))
    _require_covering(union, signers)
    return union, np.repeat(signers, sizes)


def _block_graph(n: int, m: int, union: TransactionGraph, b: int) -> TransactionGraph:
    """Graph b of a :func:`_graph_block` union of n-user, m-ring graphs."""
    starts = union._starts[b * m:(b + 1) * m + 1]
    users = union._users[starts[0]:starts[-1]] - b * n
    return TransactionGraph._from_csr(n, users, starts - starts[0])


def _sample_graph(
    config: SamplerConfig, m: int, gen: Generator
) -> tuple[TransactionGraph, Matching]:
    """One m-signer graph, with its signer assignment: a block of one, its own union."""
    graph, signed = _graph_block(config, m, [_graph_draw(config, m)(gen)])
    return graph, Matching(zip(signed[graph._starts[:-1]].tolist(), range(m)))


def sample_transaction_graph(
    config: SamplerConfig, n_users: int, m: int, rng: RandomSource
) -> tuple[TransactionGraph, Matching]:
    """Graph of m rings published by m distinct uniformly chosen signers.

    Signer j is drawn uniformly from the users that have not signed yet,
    then samples its ring within its chunk.  The returned matching is the
    true signer assignment and has size m.
    """
    if n_users != config.n_users:
        raise InvalidConfig(
            f"config partitions {config.n_users} users, caller declared {n_users}"
        )
    if not 0 <= m <= n_users:
        raise InvalidConfig(f"signer count {m} outside [0, {n_users}]")
    return _sample_graph(config, m, rng.generator)


# -- random digraph models ----------------------------------------------------


def _digraph_block(
    n: int, draws: Iterable[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One in-neighbour digraph per draw, as a block-diagonal union.

    ``draws`` yields each n-node digraph's in-degrees and Floyd draw, the
    pair a :class:`_DigraphDraw` returns.  It is read one pair at a time,
    so a lazy ``draws`` may finish each digraph's draws on a generator
    before re-keying it for the next.  All subsets are resolved in one
    lockstep pass, and the table is built in place in the stacked draw's
    int64 buffer.  Returns ``(starts, table, in_degrees)``, the arguments
    of :func:`~ringlab.graph._strongly_connected_graphs`: graph b owns
    nodes ``b*n .. b*n + n - 1`` of the ``N = B*n`` nodes, and column v of
    the ``(K, N)`` table holds v's in-neighbours in its last
    ``in_degrees[v]`` rows, the sentinel node N in the rows above.  No
    draws give the empty block.
    """
    counts: list[np.ndarray] = []
    xs: list[np.ndarray] = []
    for degrees, x in draws:
        counts.append(degrees)
        xs.append(x)
    if not xs:
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(1, dtype=np.int64), empty.reshape(0, 0), empty
    degrees = np.concatenate(counts)
    table = _stack_draws(xs, n)
    chosen = _floyd_resolve(table, np.full(degrees.shape, n - 1, dtype=np.int64), degrees)
    n_nodes = degrees.shape[0]
    padding = chosen < 0
    # skip the node itself, then move into its graph's node range
    cols = np.arange(n_nodes, dtype=np.int64)
    local = cols % n
    np.add(chosen, chosen >= local.astype(chosen.dtype), out=table)
    table += cols - local
    np.copyto(table, n_nodes, where=padding)
    return np.arange(0, n_nodes + 1, n, dtype=np.int64), table, degrees


class _DigraphDraw:
    """One n-node digraph model's draws, in two steps from one generator.

    ``in_degrees(gen)`` draws the n in-degrees and returns them with
    whether all are positive and with the largest, K; ``subsets(gen, K)``
    then makes the Floyd draw.  Calling the object makes both, in that
    order, and returns ``(degrees, x)``.  Every pool is n - 1, so step s of
    every node draws below ``n - K + s``: the row bounds are the last K
    entries of one ``arange(n)``, built once per campaign, and
    :func:`_row_draw` makes the draw.
    """

    __slots__ = ("in_degrees", "_tops")

    def __init__(self, n: int, in_degrees: Callable[[Generator], tuple[np.ndarray, bool, int]]):
        self.in_degrees = in_degrees
        self._tops = np.arange(n, dtype=np.uint64)

    def subsets(self, gen: Generator, k_max: int) -> np.ndarray:
        n = self._tops.shape[0]
        return _row_draw(gen, self._tops[n - k_max:], n)

    def __call__(self, gen: Generator) -> tuple[np.ndarray, np.ndarray]:
        degrees, _, k_max = self.in_degrees(gen)
        return degrees, self.subsets(gen, k_max)


def _regular_draw(n: int, k: int) -> _DigraphDraw:
    """The k-in-degree regular model: every in-degree is k, and drawing them takes no word."""
    fixed = np.full(n, k, dtype=np.int64), k > 0, k
    return _DigraphDraw(n, lambda gen: fixed)


def _binomial_draw(n: int, p: float) -> _DigraphDraw:
    """The p-binomial model: in-degrees Binomial(n - 1, p), none drawn at n = 1."""
    if n == 1:
        return _regular_draw(1, 0)

    def in_degrees(gen: Generator) -> tuple[np.ndarray, bool, int]:
        degrees = gen.binomial(n - 1, p, size=n).astype(np.int64)
        return degrees, bool(degrees.all()), int(degrees.max())

    return _DigraphDraw(n, in_degrees)


def _table_digraph(table: np.ndarray) -> Digraph:
    """The digraph of a one-graph :func:`_digraph_block` table, edges in row-major order."""
    n = table.shape[1]
    valid = table < n
    dst = np.broadcast_to(np.arange(n, dtype=np.int64), table.shape)[valid]
    return Digraph._from_arrays(n, table[valid], dst)


def sample_regular_digraph(k: int, n: int, rng: RandomSource) -> Digraph:
    """Uniform digraph in which every node has exactly k in-neighbors.

    Independence across nodes makes per-node uniform k-subsets exactly
    uniform over all k-in-degree regular digraphs.  The draw reads raw
    Philox words (:func:`_row_draw`), equal to ``Generator.integers`` only
    on a fresh or re-keyed ``rng``: a half word numpy buffered before the
    call is left for numpy's next draw, and none is left behind.
    """
    if n < 1 or not 0 <= k < n:
        raise InvalidParams(f"need 0 <= k < n, got k={k}, n={n}")
    return _table_digraph(_digraph_block(n, [_regular_draw(n, k)(rng.generator)])[1])


def sample_binomial_digraph(p: float, n: int, rng: RandomSource) -> Digraph:
    """Digraph with each of the n(n-1) possible edges present with probability p.

    Sampled in-degree first: each node draws d ~ Binomial(n-1, p) and then
    a uniform d-subset of in-neighbors, which is distribution-identical to
    the edge-wise definition at O(p n^2) expected work instead of Theta(n^2).
    On a reused ``rng`` the subset draw treats a buffered half word as
    :func:`sample_regular_digraph` does.
    """
    if n < 1 or not 0.0 <= p <= 1.0:
        raise InvalidParams(f"need n >= 1 and p in [0, 1], got n={n}, p={p}")
    return _table_digraph(_digraph_block(n, [_binomial_draw(n, p)(rng.generator)])[1])
