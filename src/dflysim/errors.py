"""Exception types shared across the toolkit."""


class DflyError(Exception):
    """Base class for all toolkit errors."""


class InvalidParams(DflyError):
    """Dragonfly parameters violate a structural constraint."""


class UnsupportedParams(DflyError):
    """Parameters are valid but outside what this operation covers."""


class UnknownChannel(DflyError):
    """No channel exists at the given (node, port)."""


class NotADragonfly(DflyError):
    """Group discovery failed: the graph has no unambiguous group structure."""


class UnsupportedTopology(DflyError):
    """A routing precondition fails (tables or grouping that do not fit the topology)."""


class MalformedDump(DflyError):
    """A textual dump failed to parse or failed a range check."""


class RoutingLoop(DflyError):
    """Following the forwarding tables never reaches the destination."""

    def __init__(self, pair, message=""):
        self.pair = pair
        super().__init__(message or f"forwarding loop for pair {pair}")


class DeadlockDetected(DflyError):
    """The simulated fabric locked: packets remain and none can ever move."""


class InvariantViolation(DflyError):
    """A simulator invariant failed (credits, buffers, VLs or conservation)."""


class ManifestError(DflyError):
    """An experiment manifest is malformed or names an unknown engine/pattern."""
