"""Exception hierarchy shared by every module."""


class PlapError(Exception):
    """Base class for all library errors."""


# -- graph construction ------------------------------------------------------

class GraphError(PlapError):
    pass


class DuplicateVertex(GraphError):
    pass


class UnknownEndpoint(GraphError):
    pass


class NonPositiveWeight(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class OverlappingSets(GraphError):
    pass


class EmptySet(GraphError):
    pass


class Disconnected(GraphError):
    pass


class UnknownVertex(PlapError):
    pass


# -- model / analysis --------------------------------------------------------

class DomainError(PlapError):
    """Parameter outside the validity range of a formula."""


class NegativeArgument(PlapError):
    """Nonlinearity evaluated at t < 0 (only t >= 0 is modelled)."""


class QuadratureFailure(PlapError):
    pass


class GammaTooSmall(PlapError):
    """The radius gamma of lambda3(gamma) must exceed gamma0."""


class DegenerateExponent(PlapError):
    """Spike-height threshold undefined when p^- equals m1^+."""


class InvariantError(PlapError):
    """Constructed data violates a model invariant."""


# -- solver ------------------------------------------------------------------

class SolverError(PlapError):
    pass


class InfeasibleStart(SolverError):
    pass


class ConstructionFailed(SolverError):
    pass


class ScanExhausted(SolverError):
    pass


# -- problem files / CLI -----------------------------------------------------

class ParseError(PlapError):
    pass


class SchemaError(PlapError):
    pass
