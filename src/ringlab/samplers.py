"""Ring samplers, the induced transaction-graph sampler, and random digraphs.

Randomness is organised as counter-based Philox streams keyed by
``(seed, stream_id)``.  Campaigns give trial t its own stream, so results
are reproducible bit-for-bit regardless of how trials are scheduled
across workers.

Stream layout 2.  Permutations and binomial counts are numpy's
``Generator`` draws on the stream.  Every other bounded integer of a
sampler or a campaign, each step of a Floyd subset draw and each
campaign guess, follows one rule of ringlab's own.  Value i of a draw
takes 32-bit word i of the stream's main run (``random_raw``, the low
half of each 64-bit word first; an odd count leaves the last high half
unused).  Below a bound r in ``[1, 2**32]`` a word w gives
``(w * r) >> 32`` (Lemire's multiply-shift) unless the low 32 bits of
``w * r`` fall below ``(2**32 - r) % r``; then w is rejected, and the
value takes the next word of the stream's overflow run, the same Philox
key at counter ``(0, 0, 0, 1)``, and the one after while those are
rejected too.  Rejected values take their overflow words in value order,
and no other value moves.  Every value is exactly uniform.  A trial
stream starts its overflow run fresh; a :class:`RandomSource` keeps one
overflow run beside its generator, so its successive draws never share
an overflow word.

All subset drawing funnels through one Floyd kernel: one bounded draw,
which :func:`_floyd_resolve` turns, all rows in lockstep, into a uniform
without-replacement subset of each row's candidate pool.  Sampled
objects come in blocks that draw one stream at a time and resolve
together, each object's draws being the ones it would make alone.  A
block's draws sit side by side in one array, made by one
:func:`_block_draw` (one multiply, one rejection screen and one shift,
:func:`_lemire`) whose bounds are one per row for digraphs and one per
element for rings and transaction graphs.  A digraph's draws are its
in-degrees and then its subset words (:class:`_DigraphDraw`); every
random digraph comes from :func:`_digraph_block`.  A transaction graph
draws its signer permutation and decoy counts, then the words of its
Floyd draw plus one, which gives a campaign trial's guess
(:func:`_graph_draw`); every transaction graph comes from
:func:`_graph_block`, whose block is one ``TransactionGraph``, the
disjoint union of its graphs.  Campaigns pass a block of trials, the
public samplers a block of one.  Both campaigns, the conjecture grid and
the adversary game, take their blocks from :func:`_trial_blocks`, about
``_BLOCK_NODES`` = 2048 nodes each, and check each block with one call.
The conjecture grid makes no subset draw for a trial whose in-degrees
already decide it.  A digraph block stays the in-neighbour table that
the Floyd resolve leaves, one column per node, which the grid's
strong-connectivity kernel reads as it is; only the public digraph
samplers flatten it into edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Sequence

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


# A trial's stream: its generator, whose bit generator gives the main run,
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

    def _streams(self) -> list[_Stream]:
        """This source as a block of one trial: its generator and its one overflow run."""
        if self._overflow is None:
            self._overflow = _overflow_run(self.seed, self.stream_id)
        return [(self.generator, self._overflow)]

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"


class _StreamFamily:
    """Cheap per-trial generators for a fixed seed.

    Re-keys a single Philox instance instead of constructing one per
    stream; draws are bit-identical to ``RandomSource(seed, sid).generator``
    (pinned by a unit test).  Not thread-safe; each worker owns its own.
    """

    __slots__ = ("seed", "_bitgen", "_gen", "_state")

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64
        self._bitgen = Philox(key=np.array([self.seed, 0], dtype=np.uint64))
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


class _TrialBlock:
    """The streams of a block of trials, trial t on stream ``ids[t]``.

    Iterating re-keys one generator to each trial's stream in turn, so a
    trial's draws must be finished before the next trial is taken; each
    trial's overflow run starts fresh.  A slice is the block of those
    trials.
    """

    __slots__ = ("_family", "_ids")

    def __init__(self, family: _StreamFamily, ids: range):
        self._family = family
        self._ids = ids

    def __iter__(self) -> Iterator[_Stream]:
        family, ids = self._family, self._ids
        return zip(map(family.generator, ids), map(_overflow_run, repeat(family.seed), ids))

    def __getitem__(self, trials: slice) -> _TrialBlock:
        return _TrialBlock(self._family, self._ids[trials])

    def __len__(self) -> int:
        return len(self._ids)


def _trial_streams(rng: RandomSource, trials: int) -> _TrialBlock:
    """One stream per trial, stream ids ``rng.stream_id + t``, as one block."""
    return _TrialBlock(_StreamFamily(rng.seed), range(rng.stream_id, rng.stream_id + trials))


# Nodes per trial block: small graphs share one Lemire pass, one Floyd
# resolve and one strong-connectivity call; from 2048 nodes up every trial
# is its own block.
_BLOCK_NODES = 2048


def _trial_blocks(rng: RandomSource, trials: int, n: int) -> Iterator[_TrialBlock]:
    """The streams of :func:`_trial_streams` in blocks of ``max(1, _BLOCK_NODES // n)`` trials.

    ``n`` is the number of nodes of one trial's graph.  Each block is to be
    used up before the next block is taken.
    """
    streams = _trial_streams(rng, trials)
    block = max(1, _BLOCK_NODES // n)
    for start in range(0, trials, block):
        yield streams[start:start + block]


# -- subset sampling kernel ---------------------------------------------------


def _floyd_bound(pool_sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exclusive bounds of Floyd's draw, shape ``(k_max, n)``.

    Step s of row i draws from ``[0, pool_sizes[i] - k_max + s]``.  The
    digraph models need no such array: their bounds are one per row.
    """
    k_max = int(counts.max()) if counts.shape[0] else 0
    steps = np.arange(k_max, dtype=np.int64)[:, None]
    return np.maximum(pool_sizes + (steps - k_max + 1), 1)


# The word that pads a block draw: for a bound r in [1, 2**32], the low half
# of (2**32 - 1) * r is 2**32 - r, never below the threshold (2**32 - r) % r.
_PAD_WORD = 0xFFFFFFFF


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
    bounds: np.ndarray,
    width: int,
    rows: Sequence[int],
    words: list[np.ndarray],
    runs: Sequence[Iterator[int]],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """B bounded draws of ``width`` columns each, side by side: one ``(K, B*width)`` int64 array.

    ``bounds`` is a ``uint64`` array of values in ``[1, 2**32]`` that
    broadcasts to ``(K, B, width)``: one bound per row (digraphs) or per
    element (rings and transaction graphs).  Draw b fills the last
    ``rows[b]`` rows of columns ``b*width .. b*width + width - 1``, value i
    in row-major order taking word i of ``words[b]``, its stream's main
    run (:func:`_raw_words`); a rejected value takes its words from
    ``runs[b]``, its stream's overflow run (:func:`_accept`).  The rows
    above a draw's own take the padding word, which no bound rejects; the
    caller ignores them.  Several draws' words are first placed in one
    staging array and ``words`` is emptied, so that they are freed before
    the product buffer is made; a single draw, which fills every row, is
    multiplied as it is.  ``out``, when given, is that buffer, the
    ``(K, B*width)`` uint64 array that the products and then the values
    fill.  All values come from one :func:`_lemire` call.
    """
    k_max = bounds.shape[0]
    count = len(rows)
    if count == 1:
        src = words[0][:k_max * width].reshape(k_max, 1, width)
    else:
        pad = np.full(k_max * width, _PAD_WORD, dtype="<u4")
        pieces = []
        for w, r in zip(words, rows):
            pieces += (pad[:(k_max - r) * width], w[:r * width])
        src = np.concatenate(pieces).reshape(count, k_max, width).transpose(1, 0, 2)
        del pad, pieces
    words.clear()
    if out is None:
        out = np.empty((k_max, count * width), dtype="<u8")
    x, rejected = _lemire(src, bounds, out.reshape(k_max, count, width))
    del src
    for row, b, col in rejected:
        x[row, b, col] = _accept(runs[b], int(np.broadcast_to(bounds, x.shape)[row, b, col]))
    return out.view("<i8")


def _raw_words(bitgen: BitGenerator, values: int) -> np.ndarray:
    """The 32-bit main-run words of ``values`` bounded draws.

    They come from ``ceil(values / 2)`` raw Philox words; stored
    little-endian, each lists its low half first on any host.
    """
    return bitgen.random_raw((values + 1) // 2).astype("<u8", copy=False).view("<u4")


def _floyd_block(
    pools: np.ndarray, counts: np.ndarray, words: list[np.ndarray], runs: Sequence[Iterator[int]]
) -> np.ndarray:
    """The Floyd subsets of B draws side by side, ``width = len(pools) // B`` columns each.

    Draw b's columns draw below :func:`_floyd_bound` of its own pools and
    counts from ``words[b]`` and ``runs[b]``, its stream's main-run words
    and overflow run (:func:`_block_draw`): its largest count K_b is the
    number of its rows, and its first ``K_b * width`` words fill them.  In
    block row s the bound of column j is ``max(pools[j] - K + 1 + s, 1)``
    whatever the draw's own K_b, so one :func:`_floyd_bound` over the block
    serves every draw.  Returns :func:`_floyd_resolve` of the block's draw.
    """
    count = len(words)
    width = pools.shape[0] // count
    bounds = _floyd_bound(pools, counts).astype("<u8")
    rows = counts.reshape(count, width).max(axis=1, initial=0).tolist()
    k_max = bounds.shape[0]
    x = _block_draw(bounds.reshape(k_max, count, width), width, rows, words, runs)
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
    (gen, run), = rng._streams()
    signers = np.array([signer], dtype=np.int64)
    pools = _pool_sizes(part, signers)
    counts = _decoy_counts(config, gen, pools)
    chosen = _floyd_block(pools, counts, [_raw_words(gen.bit_generator, int(counts[0]))], [run])
    decoys = _decoy_users(part, signers, chosen)
    ring = decoys[decoys >= 0].tolist()
    ring.append(signer)
    return frozenset(ring)


_GraphDraw = tuple[np.ndarray, np.ndarray, np.ndarray]


def _graph_draw(config: SamplerConfig, m: int) -> Callable[[Generator], _GraphDraw]:
    """The draws of one m-signer graph, for every graph of a campaign.

    The returned function makes, from one generator and in this order,
    the signer permutation and the decoy counts (drawn under the binomial
    model only), then takes ``K*m + 1`` main-run words (:func:`_raw_words`),
    K being the largest count: those of the Floyd draw and one more, for
    the guess of a campaign trial.  It returns ``(signers, counts, words)``.
    Under the regular model every count is k, so the counts are built
    here, once.
    """
    n = config.n_users
    fixed = None
    if isinstance(config.kind, Regular):
        fixed = np.full(m, config.kind.k, dtype=np.int64)

    def draw(gen: Generator) -> _GraphDraw:
        signers = gen.permutation(n)[:m]
        counts = fixed
        if counts is None:
            counts = _decoy_counts(config, gen, _pool_sizes(config.partition, signers))
        words = int(counts.max(initial=0)) * m + 1
        return signers, counts, _raw_words(gen.bit_generator, words)[:words]

    return draw


def _graph_block(
    config: SamplerConfig, m: int, draws: list[_GraphDraw], runs: Sequence[Iterator[int]]
) -> tuple[TransactionGraph, np.ndarray]:
    """A block of m-signer graphs, one per draw of :func:`_graph_draw`, as one graph.

    Returns ``(union, signed)``.  ``union`` is the disjoint union of the
    block's graphs: user u of graph b is union user ``b*n + u`` (n users
    per graph) and ring j of graph b is union ring ``b*m + j``.
    ``signed[e]`` is the union signer of edge e's ring.  The Floyd draws
    are made and resolved together (:func:`_floyd_block`), a rejected
    value of graph b taking its words from ``runs[b]``, and the signers
    are checked by :func:`_require_covering` on the union.
    """
    n = config.n_users
    signers = np.concatenate([d[0] for d in draws])
    counts = np.concatenate([d[1] for d in draws])
    pools = _pool_sizes(config.partition, signers)
    chosen = _floyd_block(pools, counts, [d[2] for d in draws], runs)
    k_max = chosen.shape[0]
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


def sample_transaction_graph(
    config: SamplerConfig, n_users: int, m: int, rng: RandomSource
) -> tuple[TransactionGraph, Matching]:
    """Graph of m rings published by m distinct uniformly chosen signers.

    Signer j is drawn uniformly from the users that have not signed yet,
    then samples its ring within its chunk.  The returned matching is the
    true signer assignment and has size m.  The graph is a block of one
    (:func:`_graph_block`) on ``rng``'s streams, and takes the words of a
    campaign trial's graph, its guess word unused.
    """
    config._check_users(n_users)
    if not 0 <= m <= n_users:
        raise InvalidConfig(f"signer count {m} outside [0, {n_users}]")
    (gen, run), = rng._streams()
    graph, signed = _graph_block(config, m, [_graph_draw(config, m)(gen)], [run])
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
    """One n-node digraph model's draws, in two steps from one stream.

    ``in_degrees(gen)`` draws the n in-degrees and returns them with
    whether all are positive and with the largest, K; then the Floyd
    draw takes its ``K*n`` main-run words (:func:`_raw_words`).  Every
    pool is n - 1, so step s of every node draws below ``n - K + s``.
    :meth:`block` makes a block's draws, trial by trial, and then its one
    :func:`_block_draw`; calling the object on a :class:`RandomSource`
    makes one digraph's draws, as a block of one.
    """

    __slots__ = ("n", "in_degrees")

    def __init__(self, n: int, in_degrees: Callable[[Generator], tuple[np.ndarray, bool, int]]):
        self.n = n
        self.in_degrees = in_degrees

    def block(
        self, streams: Sequence[_Stream] | _TrialBlock, decide: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """The in-degrees and the ``(K, B*n)`` Floyd draw of one digraph per stream.

        Each stream's generator draws its trial's in-degrees and then its
        words before the next is taken, so the streams may re-key one
        generator.  With ``decide``, a trial whose in-degrees leave a node
        of n >= 2 without in-neighbours draws no words and is left out: its
        digraph is not strongly connected.
        """
        n = self.n
        kept = []
        words = []
        out = None
        for gen, run in streams:
            degrees, positive, k_max = self.in_degrees(gen)
            if decide and not positive and n > 1:
                continue
            kept.append((degrees, k_max, run))
            if len(streams) == 1:
                # a lone draw's buffer is made before its words, which are freed
                # first: made after them, it sits above a hole and the heap grows
                out = np.empty((k_max, n), dtype="<u8")
            words.append(_raw_words(gen.bit_generator, k_max * n))
        if not kept:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.reshape(0, 0)
        degrees, ks, runs = zip(*kept)
        tops = np.arange(n - max(ks), n, dtype=np.uint64)[:, None, None]
        return np.concatenate(degrees), _block_draw(tops, n, ks, words, runs, out)

    def __call__(self, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
        return self.block(rng._streams())


def _regular_draw(n: int, k: int) -> _DigraphDraw:
    """The k-in-degree regular model: every in-degree is k, and drawing them takes no word."""
    if n < 1 or not 0 <= k < n:
        raise InvalidParams(f"need 0 <= k < n, got k={k}, n={n}")
    fixed = np.full(n, k, dtype=np.int64), k > 0, k
    return _DigraphDraw(n, lambda gen: fixed)


def _binomial_draw(n: int, p: float) -> _DigraphDraw:
    """The p-binomial model: in-degrees Binomial(n - 1, p), none drawn at n = 1."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise InvalidParams(f"need n >= 1 and p in [0, 1], got n={n}, p={p}")
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
