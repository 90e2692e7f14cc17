"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`SetforgeError`, so callers (and the CLI) can distinguish domain
failures from plain bugs.
"""

from __future__ import annotations


class SetforgeError(Exception):
    """Base class for all errors raised by this package."""


class UnknownNodeError(SetforgeError):
    """A node id was referenced that is not present in the graph."""


class NonExtensionalError(SetforgeError):
    """An operation that requires an extensional digraph received one
    where two distinct nodes share an extension."""

    def __init__(self, first: str, second: str) -> None:
        super().__init__(f"nodes {first!r} and {second!r} have equal extensions")
        self.first = first
        self.second = second


class BudgetExceededError(SetforgeError):
    """A completion step would enumerate more subsets, or create more
    nodes, than the budget allows."""


class SizeLimitError(SetforgeError):
    """An input exceeds a fixed size bound: too many nodes or search
    states for isomorphism, or too many numerals for a seed spec."""


class SeedClashError(SetforgeError):
    """Adding seed material would give two distinct nodes the same
    extension (an extensionality clash)."""


class SpecValidationError(SetforgeError):
    """A CodeSpec is malformed (duplicate labels, bad tag range, ...)."""


class DredConditionError(SetforgeError):
    """A depth/rank structure violates one of the DRED conditions.

    Carries the verification report so callers can inspect every
    violation, not just the first.
    """

    def __init__(self, message: str, report: object = None) -> None:
        super().__init__(message)
        self.report = report


class FormulaError(SetforgeError):
    """A formula is unusable in context: unbound variable, wrong number
    of free variables, or a bad construction parameter."""


class ParseError(SetforgeError):
    """Formula text could not be parsed.  ``position`` is a 0-based
    character offset into the input."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"parse error at offset {position}: {message}")
        self.position = position


class SchemaError(SetforgeError):
    """A graph document violates the on-disk schema.  ``path`` points at
    the offending field, e.g. ``edges[3][0]``."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class DecorationError(SetforgeError):
    """The oracle could not decorate a digraph with set values (a cycle
    other than the recognised self-loop shapes is present)."""
