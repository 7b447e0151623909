"""Exception taxonomy shared across the package.

Callers mostly care about the two branches: :class:`ValidationError` for
rejected inputs (the CLI exits with code 2) and :class:`ComputationError`
for failures inside otherwise valid computations (exit code 1).
"""


class CoherenceLabError(Exception):
    """Base class for all package errors."""


class ValidationError(CoherenceLabError, ValueError):
    """Invalid input: bad parameters, malformed graphs, unusable flags."""


class ComputationError(CoherenceLabError, RuntimeError):
    """A computation failed or exceeded its configured budget."""


# graph construction and traversal

class SelfLoopError(ValidationError):
    """An edge connects a node to itself."""


class DuplicateEdgeError(ValidationError):
    """The same unordered node pair appears more than once."""


class BadWeightError(ValidationError):
    """An edge weight is not a strictly positive finite number."""


class BadParameterError(ValidationError):
    """A structural parameter (size, arity, height, ...) is out of range."""


class UnreachableNodeError(ValidationError):
    """A path query crossed connected components."""


class DisconnectedGraphError(ValidationError):
    """The operation requires a connected graph."""


# electrical / coherence preconditions

class SameNodeError(ValidationError):
    """A pairwise resistance query needs two distinct nodes."""


class EmptyLeaderSetError(ValidationError):
    """The operation requires at least one leader."""


class LeaderQueriedError(ValidationError):
    """A node-to-set resistance was requested for a member of the set."""


class BadKappaError(ValidationError):
    """A stubbornness weight is missing or not strictly positive."""


# closed forms

class BadGapVectorError(ValidationError):
    """An inter-leader gap vector violates its sum or sign constraints."""


class BadGeometryError(ValidationError):
    """A two-leader tree placement does not fit the tree."""


class HeightTooSmallError(ValidationError):
    """The tree is too small for the requested construction."""


class OddCycleLengthError(ValidationError):
    """The closed form is only defined for even cycle lengths."""


# CLI / file ingestion

class GraphSpecError(ValidationError):
    """A graph spec string or graph file could not be parsed."""


# computational failures

#: the default evaluation budget: candidate sets of an exhaustive search,
#: rows and nodes of a growth trajectory
DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(ComputationError):
    """An enumeration would exceed the configured evaluation budget."""


class UnstableStepError(ComputationError):
    """The simulation step size violates the stability bound."""


class SolverError(ComputationError):
    """A linear solve failed or missed its residual tolerance."""
