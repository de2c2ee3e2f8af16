"""Exception types raised by the library."""


class RinglabError(Exception):
    """Base class for all library-specific errors."""


class IndexOutOfRange(RinglabError):
    """A user or ring index lies outside the declared vertex ranges."""


class NotATransactionGraph(RinglabError):
    """No signer assignment covers every ring (maximum matching < ring count)."""


class EmptyRing(NotATransactionGraph):
    """A ring node has no member edges, so no signer assignment covers it.

    Raised by the covering-matching check and by ``partition_graph``; a
    handler for :class:`NotATransactionGraph` catches it from either.
    """

    def __init__(self, ring_index: int):
        self.ring_index = ring_index
        super().__init__(f"EmptyRing at ring {ring_index}")


class MatchingNotMaximum(RinglabError):
    """The supplied matching does not cover every ring of the graph."""


class RingCrossesChunks(RinglabError):
    """A ring has members in more than one chunk of the partition."""


class InstanceTooLarge(RinglabError):
    """Instance exceeds the cap of an exhaustive (brute-force) computation."""


class InvalidConfig(RinglabError):
    """Sampler configuration violates its preconditions."""


class InvalidParams(RinglabError):
    """Digraph model parameters violate their preconditions."""


class InvalidBeta(RinglabError):
    """Corruption fraction outside [0, 1)."""


class NoFeasibleK(RinglabError):
    """No decoy count below the chunk size satisfies the security inequality."""


class DomainError(RinglabError):
    """Formula argument outside the mathematical domain."""


class HypothesisViolated(RinglabError):
    """An analytic bound was requested outside its hypothesis."""
