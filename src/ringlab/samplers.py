"""Ring samplers, the induced transaction-graph sampler, and random digraphs.

Randomness is organised as counter-based Philox streams keyed by
``(seed, stream_id)``.  Campaigns run their trials in blocks and give
block j of a campaign on ``base`` its own stream, ``base + j``, so results
are reproducible bit-for-bit regardless of how campaigns are scheduled
across workers.

Stream layout 3.  A block holds ``max(1, _BLOCK_NODES // n)`` trials of
n-node graphs (:func:`_trial_blocks`), so the block size is part of the
layout, and makes each kind of draw once for all its trials.
Permutations and binomial counts are numpy's ``Generator`` draws on the
stream, each one call over the block's ``(B, ...)`` rows.  Every other
bounded integer, each step of a Floyd subset draw and each campaign
guess, follows one rule of ringlab's own.  Value i of a draw takes
32-bit word i of the stream's main run (``random_raw``, the low half of
each 64-bit word first; an odd count leaves the last high half unused).
Below a bound r in ``[1, 2**32]`` a word w gives ``(w * r) >> 32``
(Lemire's multiply-shift) unless the low 32 bits of ``w * r`` fall below
``(2**32 - r) % r``; then w is rejected, and the value takes the next
word of the stream's overflow run, the same Philox key at counter
``(0, 0, 0, 1)``, and the one after while those are rejected too.
Rejected values take their overflow words in value order, and no other
value moves.  Every value is exactly uniform.  A block's stream starts
its overflow run fresh, and builds its Philox only at the first
rejected value; a :class:`RandomSource` keeps one overflow run beside
its generator, so its successive draws never share an overflow word.

All subset drawing funnels through one Floyd kernel: one bounded draw,
which :func:`_floyd_resolve` turns, all rows in lockstep, into a uniform
without-replacement subset of each row's candidate pool.  A block's
``(K, N)`` Floyd draw, K its largest count and N its columns, takes
``K*N`` main-run words in row-major order and is made by one
:func:`_block_draw` (one multiply, one rejection screen and one shift,
:func:`_lemire`), whose bounds are one per row for digraphs and one per
element for rings and transaction graphs.  A digraph block draws its
in-degrees and then its subset words (:class:`_DigraphDraw`); every
random digraph comes from :func:`_digraph_block`.  A transaction-graph
block draws its signer permutations and decoy counts, then the words of
its Floyd draw and one more per graph, which gives a campaign trial's
guess (:func:`_graph_draw`); every transaction graph comes from
:func:`_graph_block`, whose block is one ``TransactionGraph``, the
disjoint union of its graphs.  Campaigns pass blocks of trials, the
public samplers a block of one on their :class:`RandomSource`.  The
conjecture grid makes no subset draw for a trial whose in-degrees
already decide it.  A digraph block stays the in-neighbour table that
the Floyd resolve leaves, one column per node, which the grid's
strong-connectivity kernel reads as it is; only the public digraph
samplers flatten it into edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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
_OVERFLOW_COUNTER = np.array([0, 0, 0, 1], dtype=np.uint64)


def _overflow_run(seed: int, stream_id: int) -> Iterator[int]:
    """The 32-bit words of stream ``(seed, stream_id)``'s overflow run, low half first.

    Its Philox object is built at the first word, so a draw that rejects
    no word builds none.
    """
    key = np.array([seed, stream_id], dtype=np.uint64)
    bitgen = Philox(key=key, counter=_OVERFLOW_COUNTER)
    while True:
        word = int(bitgen.random_raw())
        yield word & 0xFFFFFFFF
        yield word >> 32


# A block's stream: its generator, whose bit generator gives the main run,
# and its overflow run.
_Stream = tuple[Generator, Iterator[int]]


class RandomSource:
    """Reproducible random stream identified by ``(seed, stream_id)``.

    Two sources constructed with identical fields produce identical draw
    sequences.  The underlying generator and overflow run are stateful:
    successive uses of the *same* instance continue its stream.
    """

    __slots__ = ("seed", "stream_id", "_generator", "_overflow")

    def __init__(self, seed: int = 0, stream_id: int = 0):
        self.seed = int(seed) & _U64
        self.stream_id = int(stream_id) & _U64
        self._generator: Generator | None = None
        self._overflow: Iterator[int] | None = None

    @property
    def generator(self) -> Generator:
        if self._generator is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._generator = Generator(Philox(key=key))
        return self._generator

    def _stream(self) -> _Stream:
        """This source as a block's stream: its generator and its one overflow run."""
        if self._overflow is None:
            self._overflow = _overflow_run(self.seed, self.stream_id)
        return self.generator, self._overflow

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"


# Nodes per trial block: small graphs share one stream, one Lemire pass, one
# Floyd resolve and one strong-connectivity call; from 2048 nodes up every
# trial is its own block.
_BLOCK_NODES = 2048


def _trial_blocks(rng: RandomSource, trials: int, n: int) -> Iterator[tuple[int, _Stream]]:
    """A campaign's blocks of ``max(1, _BLOCK_NODES // n)`` trials, the last one possibly smaller.

    ``n`` is the number of nodes of one trial's graph.  Block j is its
    trial count and its stream, ``(rng.seed, rng.stream_id + j)``.
    """
    block = max(1, _BLOCK_NODES // n)
    for j, start in enumerate(range(0, trials, block)):
        yield min(block, trials - start), RandomSource(rng.seed, rng.stream_id + j)._stream()


# -- subset sampling kernel ---------------------------------------------------


def _floyd_bound(pool_sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exclusive bounds of Floyd's draw, shape ``(k_max, n)``.

    Step s of row i draws from ``[0, pool_sizes[i] - k_max + s]``.  The
    digraph models need no such array: their bounds are one per row.
    """
    k_max = int(counts.max()) if counts.shape[0] else 0
    steps = np.arange(k_max, dtype=np.int64)[:, None]
    return np.maximum(pool_sizes + (steps - k_max + 1), 1)


def _lemire(
    words: np.ndarray, bounds: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Values below ``bounds`` made from 32-bit ``words`` by Lemire's multiply-shift, all at once.

    A word w gives ``(w * r) >> 32`` below its bound r in ``[1, 2**32]``,
    and is rejected when the low 32 bits of ``w * r`` fall below
    ``(2**32 - r) % r``.  Every word is multiplied by its ``uint64`` bound
    (the two broadcast together, to two or more dimensions) in one
    multiply, screened once and shifted once.  Returns the values, an
    int64 view of ``out`` (a uint64 array of the product's shape, made when
    not given), and the positions of the rejected words in C order; the
    caller replaces their values (:func:`_accept`).  Only the rows along
    the last axis whose smallest low half could be rejected are tested
    word by word, so the screen builds no array of the product's size.
    """
    out = np.multiply(words, bounds, out=out, dtype="<u8")
    low = out.view("<u4")[..., ::2]
    rejected = []
    # a rejection needs a low half below (2**32 - r) % r < r <= bounds.max()
    if out.size and low.min() < bounds.max():
        every = np.broadcast_to(bounds, out.shape)
        suspect = np.nonzero(low.min(axis=-1) < bounds.max())
        for row in zip(*(axis.tolist() for axis in suspect)):
            r = every[row]
            bad = np.flatnonzero(low[row] < (np.uint64(1 << 32) - r) % r)
            rejected += [(*row, col) for col in bad.tolist()]
    out >>= 32
    return out.view("<i8"), rejected


def _accept(run: Iterator[int], bound: int) -> int:
    """A rejected value below ``bound``: from the first accepted word of the overflow ``run``."""
    threshold = ((1 << 32) - bound) % bound
    while True:
        product = next(run) * bound
        if product & 0xFFFFFFFF >= threshold:
            return product >> 32


def _block_draw(
    words: np.ndarray, bounds: np.ndarray, run: Iterator[int], out: np.ndarray | None = None
) -> np.ndarray:
    """Values below ``bounds`` from 32-bit main-run ``words``, value i in C order taking word i.

    ``bounds`` is a ``uint64`` array of values in ``[1, 2**32]`` that
    broadcasts to the shape of ``words``, two or more dimensions: one bound
    per row (digraphs) or per element (rings, transaction graphs and
    guesses).  A rejected value takes its words from the overflow ``run``
    (:func:`_accept`), rejected values in value order.  ``out``, when
    given, is the uint64 array of the words' shape that the products and
    then the values fill.  All values come from one :func:`_lemire` call
    and are returned as an int64 view of that buffer.
    """
    x, rejected = _lemire(words, bounds, out)
    if rejected:
        every = np.broadcast_to(bounds, x.shape)
        for at in rejected:
            x[at] = _accept(run, int(every[at]))
    return x


def _raw_words(bitgen: BitGenerator, values: int) -> np.ndarray:
    """The 32-bit main-run words of ``values`` bounded draws.

    They come from ``ceil(values / 2)`` raw Philox words; stored
    little-endian, each lists its low half first on any host.
    """
    return bitgen.random_raw((values + 1) // 2).astype("<u8", copy=False).view("<u4")


def _floyd_block(
    pools: np.ndarray, counts: np.ndarray, words: np.ndarray, run: Iterator[int]
) -> np.ndarray:
    """Column j a uniform ``counts[j]``-subset of ``range(pools[j])``, for every column of a block.

    The block's ``(K, N)`` draw, K its largest count, takes the first
    ``K*N`` of the main-run ``words`` in row-major order, below the bounds
    of one :func:`_floyd_bound` over the block, and rejected values take
    their words from the overflow ``run`` (:func:`_block_draw`).  Every
    value is made; a column uses only its last ``counts[j]`` rows.  Returns
    :func:`_floyd_resolve` of the draw.
    """
    bounds = _floyd_bound(pools, counts)
    x = _block_draw(words[:bounds.size].reshape(bounds.shape), bounds.view("<u8"), run)
    return _floyd_resolve(x, pools, counts)


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
            if not partition.n_chunks:
                raise InvalidConfig(f"k={kind.k} needs a partition with at least one chunk")
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

    def _check_users(self, n_users: int) -> None:
        """Raise :class:`InvalidConfig` unless the partition has ``n_users`` users."""
        if n_users != self.n_users:
            raise InvalidConfig(
                f"config partitions {self.n_users} users, caller declared {n_users}"
            )

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
    config._check_users(n_users)
    if not 0 <= signer < n_users:
        raise InvalidConfig(f"signer {signer} outside [0, {n_users})")
    part = config.partition
    gen, run = rng._stream()
    signers = np.array([signer], dtype=np.int64)
    pools = _pool_sizes(part, signers)
    counts = _decoy_counts(config, gen, pools)
    chosen = _floyd_block(pools, counts, _raw_words(gen.bit_generator, int(counts[0])), run)
    decoys = _decoy_users(part, signers, chosen)
    ring = decoys[decoys >= 0].tolist()
    ring.append(signer)
    return frozenset(ring)


# A block's graph draws: signers, their pools and decoy counts, flat over the
# block's rings graph by graph, and the block's main-run words.
_GraphDraw = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _graph_draw(config: SamplerConfig, m: int) -> Callable[[Generator, int], _GraphDraw]:
    """The draws of a block of m-signer graphs, for every block of a campaign.

    The returned function makes, from one generator, for B graphs and in
    this order: their signer permutations, one ``permuted`` call over
    ``(B, n)`` rows, each graph's signers being its row's first m users;
    their decoy counts, one ``binomial`` call (binomial model only); then
    ``K*B*m + B`` main-run words (:func:`_raw_words`), K being the block's
    largest count: those of the block's Floyd draw and then one per graph,
    for the guess of a campaign trial.  It returns
    ``(signers, pools, counts, words)``.
    """
    part = config.partition
    users = np.arange(config.n_users, dtype=np.int64)

    def draw(gen: Generator, graphs: int) -> _GraphDraw:
        order = np.tile(users, (graphs, 1))
        signers = gen.permuted(order, axis=1, out=order)[:, :m].ravel()
        pools = _pool_sizes(part, signers)
        counts = _decoy_counts(config, gen, pools)
        values = int(counts.max(initial=0)) * signers.shape[0] + graphs
        return signers, pools, counts, _raw_words(gen.bit_generator, values)

    return draw


def _graph_block(
    config: SamplerConfig, m: int, graphs: int, draw: _GraphDraw, run: Iterator[int]
) -> tuple[TransactionGraph, np.ndarray]:
    """A block of ``graphs`` m-signer graphs, from one :func:`_graph_draw` draw, as one graph.

    Returns ``(union, signed)``.  ``union`` is the disjoint union of the
    block's graphs: user u of graph b is union user ``b*n + u`` (n users
    per graph) and ring j of graph b is union ring ``b*m + j``.
    ``signed[e]`` is the union signer of edge e's ring.  The block's Floyd
    draw is made and resolved at once (:func:`_floyd_block`), a rejected
    value taking its words from the block's overflow ``run``, and the
    signers are checked by :func:`_require_covering` on the union.
    """
    n = config.n_users
    signers, pools, counts, words = draw
    chosen = _floyd_block(pools, counts, words, run)
    k_max = chosen.shape[0]
    rings = np.empty((signers.shape[0], k_max + 1), dtype=np.int64)  # one row per ring
    rings[:, :k_max] = _decoy_users(config.partition, signers, chosen).T
    rings[:, k_max] = signers
    rings.sort(axis=1)  # the -1 padding first, then the members ascending
    sizes = counts + 1
    offset = np.repeat(np.arange(0, graphs * n, n), m)  # each ring's graph's first user
    valid = rings >= 0
    rings += offset[:, None]  # union user ids
    users = rings[valid]
    signers = signers + offset
    union = TransactionGraph._from_csr(graphs * n, users, _offsets(sizes))
    _require_covering(union, signers)
    return union, np.repeat(signers, sizes)


def _block_graph(n: int, m: int, union: TransactionGraph, b: int) -> TransactionGraph:
    """Graph b of a :func:`_graph_block` union of n-user, m-ring graphs."""
    starts = union._starts[b * m:(b + 1) * m + 1]
    users = union._users[starts[0]:starts[-1]] - b * n
    return TransactionGraph._from_csr(n, users, starts - starts[0])


def sample_transaction_graph(
    config: SamplerConfig, n_users: int, m: int, rng: RandomSource
) -> tuple[TransactionGraph, Matching]:
    """Graph of m rings published by m distinct uniformly chosen signers.

    Signer j is drawn uniformly from the users that have not signed yet,
    then samples its ring within its chunk.  The returned matching is the
    true signer assignment and has size m.  The graph is a block of one
    (:func:`_graph_block`) on ``rng``'s stream, and takes the words of a
    campaign trial's graph, its guess word unused.
    """
    config._check_users(n_users)
    if not 0 <= m <= n_users:
        raise InvalidConfig(f"signer count {m} outside [0, {n_users}]")
    gen, run = rng._stream()
    graph, signed = _graph_block(config, m, 1, _graph_draw(config, m)(gen, 1), run)
    return graph, Matching(zip(signed[graph._starts[:-1]].tolist(), range(m)))


# -- random digraph models ----------------------------------------------------


def _digraph_block(
    n: int, degrees: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The in-neighbour digraphs of a block's draws, as a block-diagonal union.

    ``degrees`` and ``x`` are the in-degrees and the Floyd draw of B n-node
    digraphs, as :meth:`_DigraphDraw.block` returns them.  All subsets are
    resolved in one lockstep pass, and the table is built in place in the
    draw's int64 buffer.  Returns ``(starts, table, in_degrees)``, the
    arguments of :func:`~ringlab.graph._strongly_connected_graphs`: graph b
    owns nodes ``b*n .. b*n + n - 1`` of the ``N = B*n`` nodes, and column
    v of the ``(K, N)`` table holds v's in-neighbours in its last
    ``in_degrees[v]`` rows, the sentinel node N in the rows above.  No
    draws give the empty block.
    """
    chosen = _floyd_resolve(x, np.full(degrees.shape, n - 1, dtype=np.int64), degrees)
    n_nodes = degrees.shape[0]
    padding = chosen < 0
    # skip the node itself, then move into its graph's node range
    cols = np.arange(n_nodes, dtype=np.int64)
    local = cols % n
    np.add(chosen, chosen >= local.astype(chosen.dtype), out=x)
    x += cols - local
    np.copyto(x, n_nodes, where=padding)
    return np.arange(0, n_nodes + 1, n, dtype=np.int64), x, degrees


class _DigraphDraw:
    """One n-node digraph model's draws for a block of B trials, in two steps from one stream.

    ``in_degrees(gen, B)`` draws the block's ``(B, n)`` in-degrees; then
    the Floyd draw takes ``K*B*n`` main-run words (:func:`_raw_words`),
    K the block's largest in-degree.  Every pool is n - 1, so step s of
    every node draws below ``n - K + s``.  Calling the object on a
    :class:`RandomSource` makes one digraph's draws, as a block of one.
    """

    __slots__ = ("n", "in_degrees")

    def __init__(self, n: int, in_degrees: Callable[[Generator, int], np.ndarray]):
        self.n = n
        self.in_degrees = in_degrees

    def block(
        self, stream: _Stream, trials: int, decide: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """The in-degrees and the ``(K, B*n)`` Floyd draw of the block's B kept digraphs.

        With ``decide``, a trial whose in-degrees leave a node of n >= 2
        without in-neighbours is left out before the words are drawn: its
        digraph is not strongly connected.  The kept trials' draw fills
        its words in row-major order, node v of kept trial b in column
        ``b*n + v``, and is made by one :func:`_block_draw`.
        """
        gen, run = stream
        n = self.n
        degrees = self.in_degrees(gen, trials)
        if decide and n > 1:
            degrees = degrees[degrees.all(axis=1)]
        k_max = int(degrees.max(initial=0))
        size = degrees.size
        # the buffer is made before the words, which are freed first: made
        # after them, it sits above a hole and the heap grows
        out = np.empty((k_max, size), dtype="<u8")
        words = _raw_words(gen.bit_generator, k_max * size)[:k_max * size]
        tops = np.arange(n - k_max, n, dtype=np.uint64)[:, None]
        return degrees.ravel(), _block_draw(words.reshape(k_max, size), tops, run, out)

    def __call__(self, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
        return self.block(rng._stream(), 1)


def _regular_draw(n: int, k: int) -> _DigraphDraw:
    """The k-in-degree regular model: every in-degree is k, and drawing them takes no word."""
    if n < 1 or not 0 <= k < n:
        raise InvalidParams(f"need 0 <= k < n, got k={k}, n={n}")
    return _DigraphDraw(n, lambda gen, trials: np.full((trials, n), k, dtype=np.int64))


def _binomial_draw(n: int, p: float) -> _DigraphDraw:
    """The p-binomial model: in-degrees Binomial(n - 1, p), none drawn at n = 1."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise InvalidParams(f"need n >= 1 and p in [0, 1], got n={n}, p={p}")
    if n == 1:
        return _regular_draw(1, 0)
    return _DigraphDraw(n, lambda gen, trials: gen.binomial(n - 1, p, size=(trials, n)))


def _table_digraph(table: np.ndarray) -> Digraph:
    """The digraph of a one-graph :func:`_digraph_block` table, edges in row-major order."""
    n = table.shape[1]
    valid = table < n
    dst = np.broadcast_to(np.arange(n, dtype=np.int64), table.shape)[valid]
    return Digraph._from_arrays(n, table[valid], dst)


def sample_regular_digraph(k: int, n: int, rng: RandomSource) -> Digraph:
    """Uniform digraph in which every node has exactly k in-neighbors.

    Independence across nodes makes per-node uniform k-subsets exactly
    uniform over all k-in-degree regular digraphs.
    """
    return _table_digraph(_digraph_block(n, *_regular_draw(n, k)(rng))[1])


def sample_binomial_digraph(p: float, n: int, rng: RandomSource) -> Digraph:
    """Digraph with each of the n(n-1) possible edges present with probability p.

    Sampled in-degree first: each node draws d ~ Binomial(n-1, p) and then
    a uniform d-subset of in-neighbors, which is distribution-identical to
    the edge-wise definition at O(p n^2) expected work instead of Theta(n^2).
    """
    return _table_digraph(_digraph_block(n, *_binomial_draw(n, p)(rng))[1])
