"""Exception types shared across the package.

Everything user-facing derives from DomainError so the CLI can map bad
mathematical input to exit code 1 (usage errors stay exit code 2).
"""


class DomainError(ValueError):
    """Input is well-formed but mathematically inadmissible for the operation."""


class ComplexError(DomainError):
    """Malformed simplicial or cube complex data."""


class PairError(DomainError):
    """A two-complex operation was called with an incompatible pair."""


class PocsetError(DomainError):
    """Pocset axioms violated."""


class NotTwoSidedError(DomainError):
    """A complex has no halfspace pocset: a hyperplane crosses itself, or
    its removal does not split the 1-skeleton into two parts, or the
    complex is not connected."""
