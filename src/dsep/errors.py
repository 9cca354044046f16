"""Exception types shared across the package.

Every failure mode raised by the library derives from DsepError, so
callers (including the CLI) can catch one base class.  Errors raised
while reading graph documents may carry a source location.
"""

from __future__ import annotations


class DsepError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None) -> None:
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class CycleDetected(DsepError):
    """The edge set contains a directed cycle; `cycle` is a witness."""

    def __init__(self, message: str, *, cycle: tuple[str, ...] = (),
                 line: int | None = None, column: int | None = None) -> None:
        self.cycle = tuple(cycle)
        super().__init__(message, line=line, column=column)


class SelfLoop(DsepError):
    """An edge starts and ends on the same node."""


class DuplicateEdge(DsepError):
    """The same directed edge was given twice."""


class UnknownEndpoint(DsepError):
    """An edge is not a (tail, head) pair of declared nodes."""


class ForeignNode(DsepError):
    """A node id or name does not belong to the graph at hand."""


class EmptyStartSet(DsepError):
    """A reachability sweep or separation query was given no start nodes."""


class InvalidArgument(DsepError, ValueError):
    """An argument has the wrong type or lies out of range."""


class InvalidQuery(DsepError, ValueError):
    """A query's node sets are no id sets or overlap, or its method or budget is bad."""


class MalformedTrail(DsepError):
    """A trail object does not describe a connected walk over distinct edges."""


class EndpointInConditioningSet(DsepError):
    """A trail was tested for activity but one of its ends is conditioned on."""


class OracleScaleExceeded(DsepError):
    """The graph or joint distribution is too large for exhaustive checking."""


class GraphSyntaxError(DsepError):
    """A graph document could not be parsed."""
