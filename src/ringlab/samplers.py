"""Ring samplers, the induced transaction-graph sampler, and random digraphs.

Randomness is organised as counter-based Philox streams keyed by
``(seed, stream_id)``.  Campaigns give trial t its own stream, so results
are reproducible bit-for-bit regardless of how trials are scheduled
across workers.

All subset drawing funnels through one Floyd kernel: one bounded integer
draw, which :func:`_floyd_resolve` turns, all rows in lockstep, into a
uniform without-replacement subset of each row's candidate pool.  Rings
make the draw through numpy with :func:`_floyd_draw` (:func:`_floyd_subsets`
is bound, draw and resolve together, used by :func:`sample_ring`).
Transaction graphs and digraphs apply numpy's bounded-integer rule to
raw Philox words and give the same integers: :func:`_lemire` makes all
values of a block with one multiply, one rejection screen and one shift.
A transaction graph draws its signer permutation and decoy counts through
numpy, then reads its generator's state once and takes the words of its
Floyd draw plus one (:func:`_graph_draw`); a block of graphs makes its
Floyd draws together (:func:`_block_floyd`), and the extra word gives a
campaign trial's guess.  A caller's generator, which keeps drawing, is
then left where numpy's own draws would leave it (:func:`_settle`).  A
digraph's draws are two steps from one generator (:class:`_DigraphDraw`):
its in-degrees, then the raw words of its subset draw, whose rows each
have one bound (:func:`_block_draw`).  The regular samplers use constant
subset sizes, so a campaign whose pools are constant too counts its
words once; the binomial samplers first draw per-row binomial sizes and
reuse the same kernel.  The conjecture grid makes no subset draw for a
trial whose in-degrees already decide it.
Sampled objects come in blocks that draw one stream at a time and
resolve together, each object's draws being the ones it would make
alone: every random digraph comes from :func:`_digraph_block` and every
transaction graph from :func:`_graph_block`, whose block is one
``TransactionGraph``, the disjoint union of its graphs.  Campaigns pass a
block of trials, the public samplers a block of one.  Both campaigns, the
conjecture grid and the adversary game, take their blocks from
:func:`_trial_blocks`, about ``_BLOCK_NODES`` = 2048 nodes each, and
check each block with one call.  A digraph block stays the in-neighbour
table that the Floyd resolve leaves, one column per node, which the
grid's strong-connectivity kernel reads as it is; only the public
digraph samplers flatten it into edges.
"""
from __future__ import annotations

from dataclasses import dataclass
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


class _TrialBlock:
    """The generators of a block of trials, trial t on stream ``ids[t]``.

    Iterating re-keys one generator to each trial's stream in turn, so a
    trial's draws must be finished before the next trial is taken.
    ``generator(t)`` re-keys it to trial t's stream again, from its start,
    and a slice is the block of those trials.
    """

    __slots__ = ("_family", "_ids")

    def __init__(self, family: _StreamFamily, ids: range):
        self._family = family
        self._ids = ids

    def __iter__(self) -> Iterator[Generator]:
        return map(self._family.generator, self._ids)

    def __getitem__(self, trials: slice) -> _TrialBlock:
        return _TrialBlock(self._family, self._ids[trials])

    def __len__(self) -> int:
        return len(self._ids)

    def generator(self, t: int) -> Generator:
        return self._family.generator(self._ids[t])


def _trial_streams(rng: RandomSource, trials: int) -> _TrialBlock:
    """One generator per trial, stream ids ``rng.stream_id + t``, as one block."""
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

    Step s of row i draws from ``[0, pool_sizes[i] - k_max + s]``.  The
    digraph models need no such array: their bounds are one per row
    (:func:`_block_draw`).
    """
    k_max = int(counts.max()) if counts.shape[0] else 0
    steps = np.arange(k_max, dtype=np.int64)[:, None]
    return np.maximum(pool_sizes + (steps - k_max + 1), 1)


def _floyd_draw(gen: Generator, bound: np.ndarray) -> np.ndarray:
    """The one bounded integer draw of Floyd's algorithm, shaped like ``bound``, through numpy.

    Nothing is drawn when ``bound`` has no rows (``k_max`` is 0).  Rings
    draw here, and so does a transaction graph whose raw words hold a word
    that numpy rejects (:func:`_block_floyd`).
    """
    if not bound.shape[0]:
        return np.empty(bound.shape, dtype=np.int64)
    return gen.integers(0, bound, dtype=np.int64)


# The word that pads a block draw: for a bound r in [1, 2**32], the low half
# of (2**32 - 1) * r is 2**32 - r, never below numpy's threshold
# (2**32 - r) % r, and a bound of 1 gives (2**32 - 1) >> 32 = 0.
_PAD_WORD = 0xFFFFFFFF


def _lemire(
    words: np.ndarray, bounds: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """numpy's bounded draws below ``bounds`` made from 32-bit ``words``, all at once.

    ``Generator.integers`` draws a value below a bound r in ``[1, 2**32]``
    with Lemire's multiply-shift: one 32-bit word w gives ``(w * r) >> 32``
    unless the low 32 bits of ``w * r`` fall below ``(2**32 - r) % r``;
    then it rejects w and draws the value again from the next word.  Here
    every word is multiplied by its ``uint64`` bound (the two broadcast
    together, to two or more dimensions) in one multiply, screened once and
    shifted once.  Returns the values, an int64 view of ``out`` (a uint64
    array of the product's shape, made when not given), and, for each row
    along the last axis, the column of its first rejected word or -1; None
    when no word is rejected.  A rejected word makes its value and every
    later value of its draw wrong; the caller draws them again.  Only the
    rows whose smallest low half could be rejected are tested word by word,
    so the screen builds no array of the product's size.
    """
    out = np.multiply(words, bounds, out=out, dtype="<u8")
    low = out.view("<u4")[..., ::2]
    first = None
    # a rejection needs a low half below (2**32 - r) % r < r <= bounds.max()
    if out.size and low.min() < bounds.max():
        suspect = low.min(axis=-1) < bounds.max()
        first = np.full(suspect.shape, -1)
        every = np.broadcast_to(bounds, out.shape)
        for row in zip(*np.nonzero(suspect)):
            r = every[row]
            bad = low[row] < (np.uint64(1 << 32) - r) % r
            if bad.any():
                first[row] = bad.argmax()
        if (first < 0).all():
            first = None
    out >>= 32
    return out.view("<i8"), first


def _block_draw(
    tops: np.ndarray,
    n: int,
    rows: Sequence[int],
    words: list[np.ndarray],
    replay: Callable[[int], tuple[BitGenerator, np.ndarray]],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """B bounded integer draws of n columns each, side by side: one ``(K, B*n)`` int64 array.

    ``tops`` holds K ascending ``uint64`` bounds in ``[1, 2**32]``, one per
    row.  Draw b fills the last ``rows[b]`` rows of columns ``b*n ..
    b*n + n - 1`` with ``gen.integers(0, tops[-rows[b]:, None], size=(rows[b],
    n))``, made from ``words[b]``, the :func:`_raw_words` of ``rows[b] * n``
    values that its own stream gave.  The rows above a draw's own, in its
    columns, take the padding word, so a row of bound 1 there reads 0, as
    numpy draws it from no word.  Several draws' words are first placed in
    one staging array and ``words`` is emptied, so that they are freed
    before the product buffer is made; a single draw's words are multiplied
    as they are.  ``out``, when given, is that buffer, the ``(K, B*n)``
    uint64 array that the products and then the result fill.  All values
    come from one :func:`_lemire` call.  A draw with a rejected word, which
    the screen finds rarely, is made again by :func:`_redraw_rejected`;
    ``replay(b)`` gives the bit generator just past draw b's words, and
    those words.  A draw equals numpy's when its generator held no buffered
    half word, as a fresh or re-keyed one does, and is not used afterwards:
    numpy would keep the unused high half of an odd last word for its next
    draw, and this drops it.
    """
    k_max = tops.shape[0]
    count = len(rows)
    if count == 1:
        top = k_max - rows[0]
        src = words[0][:rows[0] * n].reshape(-1, 1, n)
    else:
        top = 0
        pad = np.full(k_max * n, _PAD_WORD, dtype="<u4")
        pieces = []
        for w, r in zip(words, rows):
            pieces += (pad[:(k_max - r) * n], w[:r * n])
        src = np.concatenate(pieces).reshape(count, k_max, n).transpose(1, 0, 2)
        del pad, pieces
    words.clear()
    if out is None:
        out = np.empty((k_max, count * n), dtype="<u8")
    if not out.size:
        return out.view("<i8")
    out[:top] = 0  # a lone draw's leading bound-1 row
    _, rejected = _lemire(src, tops[top:, None, None], out[top:].reshape(k_max - top, count, n))
    del src
    x = out.view("<i8")
    if rejected is not None:
        for b in np.flatnonzero((rejected >= 0).any(axis=0)).tolist():
            first = k_max - rows[b]
            _redraw_rejected(*replay(b), x[first:, b * n:(b + 1) * n], tops[first:])
    return x


def _raw_words(bitgen: BitGenerator, values: int) -> np.ndarray:
    """The 32-bit words of ``values`` bounded draws, in numpy's order.

    They come from ``ceil(values / 2)`` raw Philox words; stored
    little-endian, each lists its low half first on any host.
    """
    return bitgen.random_raw((values + 1) // 2).astype("<u8", copy=False).view("<u4")


def _redraw_rejected(
    bitgen: BitGenerator, words: np.ndarray, values: np.ndarray, tops: np.ndarray
) -> None:
    """Make one draw's values again from its ``words``, in place, rejecting as numpy does.

    Row i of ``values`` draws below ``tops[i]``, and value ``(i, j)`` takes
    word ``i*n + j`` moved on by the words rejected before it.  From the
    first value still rejected, the values are made again one word further
    on; more raw words are drawn from ``bitgen`` when that runs past
    ``words``.
    """
    n = values.shape[1]
    size = values.size
    row = col = shift = 0
    while True:
        if size + shift > words.size:
            words = np.concatenate((words, _raw_words(bitgen, 2)))
        start = row * n + col + shift
        stop = (row + 1) * n + shift
        _, in_row = _lemire(
            words[None, start:stop], tops[row], values[row:row + 1, col:].view("<u8")
        )
        _, below = _lemire(
            words[stop:size + shift].reshape(-1, n), tops[row + 1:, None],
            values[row + 1:].view("<u8"),
        )
        if in_row is not None:
            col += int(in_row[0])
        elif below is not None:
            bad = int(np.argmax(below >= 0))
            row += 1 + bad
            col = int(below[bad])
        else:
            return
        shift += 1


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
    signers = np.array([signer], dtype=np.int64)
    pools = _pool_sizes(part, signers)
    counts = _decoy_counts(config, rng.generator, pools)
    decoys = _decoy_users(part, signers, _floyd_subsets(rng.generator, pools, counts))
    ring = decoys[decoys >= 0].tolist()
    ring.append(signer)
    return frozenset(ring)


def _floyd_words(pools: np.ndarray, counts: np.ndarray) -> int:
    """32-bit words that numpy's Floyd draw takes when it rejects none: one per bound above 1."""
    return int(np.count_nonzero(_floyd_bound(pools, counts) > 1))


def _next_words(bitgen: BitGenerator, state: dict, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of numpy's bounded draws from ``bitgen``, at ``state``.

    A half word that numpy buffered (``has_uint32``) comes first, then the
    :func:`_raw_words` of one ``random_raw`` call, which leaves the buffered
    half as it is.
    """
    words = _raw_words(bitgen, count - state["has_uint32"])
    if state["has_uint32"]:
        words = np.concatenate((np.array([state["uinteger"]], dtype="<u4"), words))
    return words[:count]


_GraphDraw = tuple[Generator, dict, np.ndarray, np.ndarray, np.ndarray]


def _graph_draw(config: SamplerConfig, m: int) -> Callable[[Generator], _GraphDraw]:
    """The draws of one m-signer graph, for every graph of a campaign.

    The returned function makes, from one generator and in this order,
    the signer permutation and the decoy counts (drawn under the binomial
    model only).  It then reads the generator's state once and takes the
    words of the Floyd draw that follows (:func:`_next_words`): one for
    each element whose bound exceeds 1, and one more, for the guess of a
    campaign trial.  It returns ``(gen, state, signers, counts, words)``.
    Under the regular model with equal chunks every pool and count is the
    same in every graph, so the counts and the word count are built here,
    once.
    """
    n = config.n_users
    part = config.partition
    fixed = None
    if isinstance(config.kind, Regular) and len(set(part.chunk_sizes())) == 1:
        counts = np.full(m, config.kind.k, dtype=np.int64)
        pools = np.full(m, part.chunk_sizes()[0] - 1, dtype=np.int64)
        fixed = counts, _floyd_words(pools, counts)

    def draw(gen: Generator) -> _GraphDraw:
        signers = gen.permutation(n)[:m]
        if fixed is not None:
            counts, words = fixed
        else:
            pools = _pool_sizes(part, signers)
            counts = _decoy_counts(config, gen, pools)
            words = _floyd_words(pools, counts)
        state = gen.bit_generator.state
        return gen, state, signers, counts, _next_words(gen.bit_generator, state, words + 1)

    return draw


def _settle(draw: _GraphDraw, used: int) -> None:
    """Leave a graph's generator where numpy's own draws leave it: ``used`` words past its state.

    The state is restored once, and numpy draws the ``used`` 32-bit words
    one by one, so that it buffers the half word it would.
    """
    gen = draw[0]
    gen.bit_generator.state = draw[1]
    gen.integers(0, 1 << 32, size=used, dtype=np.uint32)


def _block_floyd(
    m: int, draws: list[_GraphDraw], pools: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The Floyd draws of a block of m-signer graphs, side by side in one ``(K, B*m)`` int64 array.

    Graph b's draw fills the last ``K_b`` rows of its m columns, where
    ``K_b`` is its largest count: step s of column j draws below
    ``pools[j] - K_b + 1 + s``, or below 1 when that is smaller, as
    :func:`_floyd_bound` has it.  The rows above, and every element of bound
    1, draw 0 from no word: they take the padding word.  Each graph's words
    fill its other elements in row-major order, and one :func:`_lemire`
    call makes every value.  A graph with a rejected word is drawn again
    through numpy from its state, and its entry of ``draws`` is replaced by
    one whose state follows that draw and whose only word is the next one.
    """
    count = len(draws)
    k_each = counts.reshape(count, m).max(axis=1, initial=0)
    k_max = int(k_each.max(initial=0))
    step = np.arange(1 - k_max, 1)  # s - K + 1 at block row s
    bound = np.maximum(pools.reshape(count, 1, m) + step[:, None], 1)
    np.copyto(bound, 1, where=(step + k_each[:, None] < 1)[:, :, None])  # rows above its own
    # a graph's words fill its elements of bound above 1, then one slot for its last word
    slots = np.ones((count, k_max * m + 1), dtype=bool)
    np.greater(bound.reshape(count, -1), 1, out=slots[:, :-1])
    words = np.full(slots.shape, _PAD_WORD, dtype="<u4")
    words[slots] = np.concatenate([d[4] for d in draws])
    x = np.empty((k_max, count * m), dtype="<u8")
    _, rejected = _lemire(
        words[:, :-1].reshape(count, k_max, m).transpose(1, 0, 2),
        bound.astype("<u8").transpose(1, 0, 2),
        x.reshape(k_max, count, m),
    )
    x = x.view("<i8")
    if rejected is not None:
        for b in np.flatnonzero((rejected >= 0).any(axis=0)).tolist():
            gen, state, signers, counts_b, _ = draws[b]
            gen.bit_generator.state = state
            cols = slice(b * m, (b + 1) * m)
            x[k_max - k_each[b]:, cols] = _floyd_draw(gen, _floyd_bound(pools[cols], counts_b))
            state = gen.bit_generator.state
            draws[b] = gen, state, signers, counts_b, _next_words(gen.bit_generator, state, 1)
    return x


def _graph_block(
    config: SamplerConfig, m: int, draws: list[_GraphDraw]
) -> tuple[TransactionGraph, np.ndarray]:
    """A block of m-signer graphs, one per draw of :func:`_graph_draw`, as one graph.

    Returns ``(union, signed)``.  ``union`` is the disjoint union of the
    block's graphs: user u of graph b is union user ``b*n + u`` (n users
    per graph) and ring j of graph b is union ring ``b*m + j``.
    ``signed[e]`` is the union signer of edge e's ring.  The Floyd draws
    are made together (:func:`_block_floyd`), all subsets are resolved in
    one lockstep pass, and the signers are checked by
    :func:`_require_covering` on the union.  Afterwards the last word of
    each entry of ``draws`` is the word that follows its graph's Floyd
    draw.
    """
    n = config.n_users
    signers = np.concatenate([d[2] for d in draws])
    counts = np.concatenate([d[3] for d in draws])
    pools = _pool_sizes(config.partition, signers)
    x = _block_floyd(m, draws, pools, counts)
    chosen = _floyd_resolve(x, pools, counts)
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
    """One m-signer graph, with its signer assignment: a block of one, its own union.

    ``gen`` keeps drawing afterwards, so it is left where numpy's own draws
    would leave it, just past the Floyd draw.
    """
    draws = [_graph_draw(config, m)(gen)]
    graph, signed = _graph_block(config, m, draws)
    _settle(draws[0], draws[0][4].size - 1)
    return graph, Matching(zip(signed[graph._starts[:-1]].tolist(), range(m)))


def sample_transaction_graph(
    config: SamplerConfig, n_users: int, m: int, rng: RandomSource
) -> tuple[TransactionGraph, Matching]:
    """Graph of m rings published by m distinct uniformly chosen signers.

    Signer j is drawn uniformly from the users that have not signed yet,
    then samples its ring within its chunk.  The returned matching is the
    true signer assignment and has size m.
    """
    config._check_users(n_users)
    if not 0 <= m <= n_users:
        raise InvalidConfig(f"signer count {m} outside [0, {n_users}]")
    return _sample_graph(config, m, rng.generator)


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
    """One n-node digraph model's draws, in two steps from one generator.

    ``in_degrees(gen)`` draws the n in-degrees and returns them with
    whether all are positive and with the largest, K; then the Floyd
    draw takes its raw words (:func:`_raw_words`).  Every pool is n - 1,
    so step s of every node draws below ``n - K + s``: a leading bound of
    1 (K = n - 1) takes no word, and the others take ``n`` words a row.
    :meth:`block` makes a block's draws, trial by trial, and then its one
    :func:`_block_draw`; calling the object makes one digraph's draws, as
    a block of one.
    """

    __slots__ = ("n", "in_degrees")

    def __init__(self, n: int, in_degrees: Callable[[Generator], tuple[np.ndarray, bool, int]]):
        self.n = n
        self.in_degrees = in_degrees

    def block(
        self,
        gens: Sequence[Generator] | _TrialBlock,
        restart: Callable[[int], Generator] | None = None,
        decide: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The in-degrees and the ``(K, B*n)`` Floyd draw of one digraph per generator.

        Each generator draws its trial's in-degrees and then its raw words
        before the next is taken, so ``gens`` may re-key one generator.
        With ``decide``, a trial whose in-degrees leave a node of n >= 2
        without in-neighbours draws no words and is left out: its digraph
        is not strongly connected.  A rejected word is redrawn on the
        generator of its trial: in place when that trial was the last one
        taken and nothing has drawn since; otherwise ``restart(t)`` re-keys
        trial t's stream and its in-degrees and words are drawn again first.
        """
        n = self.n
        kept = []
        words = []
        out = None
        t = -1
        for t, gen in enumerate(gens):
            degrees, positive, k_max = self.in_degrees(gen)
            if decide and not positive and n > 1:
                continue
            rows = k_max - (0 < k_max == n - 1)  # a leading bound of 1 takes no word
            kept.append((t, degrees, k_max, rows))
            if len(gens) == 1:
                # a lone draw's buffer is made before its words, which are freed
                # first: made after them, it sits above a hole and the heap grows
                out = np.empty((k_max, n), dtype="<u8")
            words.append(_raw_words(gen.bit_generator, rows * n))
        if not kept:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.reshape(0, 0)
        live = t  # the trial whose stream the generator is still on
        live_words = words[-1]

        def replay(b: int) -> tuple[BitGenerator, np.ndarray]:
            nonlocal live
            t, _, _, rows = kept[b]
            if t == live:
                return gen.bit_generator, live_words
            live = -1
            again = restart(t)
            self.in_degrees(again)
            return again.bit_generator, _raw_words(again.bit_generator, rows * n)

        _, degrees, ks, rows = zip(*kept)
        tops = np.arange(n - max(ks), n, dtype=np.uint64)
        return np.concatenate(degrees), _block_draw(tops, n, rows, words, replay, out)

    def __call__(self, gen: Generator) -> tuple[np.ndarray, np.ndarray]:
        return self.block([gen])


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
    uniform over all k-in-degree regular digraphs.  The draw reads raw
    Philox words (:func:`_block_draw`, a block of one), equal to
    ``Generator.integers`` only on a fresh or re-keyed ``rng``: a half word
    numpy buffered before the call is left for numpy's next draw, and none
    is left behind.
    """
    return _table_digraph(_digraph_block(n, *_regular_draw(n, k)(rng.generator))[1])


def sample_binomial_digraph(p: float, n: int, rng: RandomSource) -> Digraph:
    """Digraph with each of the n(n-1) possible edges present with probability p.

    Sampled in-degree first: each node draws d ~ Binomial(n-1, p) and then
    a uniform d-subset of in-neighbors, which is distribution-identical to
    the edge-wise definition at O(p n^2) expected work instead of Theta(n^2).
    On a reused ``rng`` the subset draw treats a buffered half word as
    :func:`sample_regular_digraph` does.
    """
    return _table_digraph(_digraph_block(n, *_binomial_draw(n, p)(rng.generator))[1])
