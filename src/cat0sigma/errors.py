"""Exception types shared across the package."""


class Cat0SigmaError(Exception):
    """Base class for all errors raised by this package."""


class ZeroCharacter(Cat0SigmaError):
    """The zero character has no ray class on the character sphere."""


class DimensionMismatch(Cat0SigmaError):
    """Operands live on character spheres of different dimensions."""


class WrongSpace(Cat0SigmaError):
    """A point or ray does not belong to the given model space."""


class ParameterOutOfRange(Cat0SigmaError):
    """A ray parameter is negative, an H2 ray point lies beyond binary64, or
    a tree depth or ray parameter exceeds ``trees.DEPTH_BUDGET``."""


class UnknownGenerator(Cat0SigmaError):
    """A word uses a letter that is not a declared generator."""


class EndNotFixed(Cat0SigmaError):
    """A generator moves the boundary point, so no character is induced."""


class EmptyConfiguration(Cat0SigmaError):
    """A control configuration must contain at least one point."""


class NotClosed(Cat0SigmaError):
    """The map sends a configuration label outside the configuration."""


class UnknownVertex(Cat0SigmaError):
    """Vertex is not in the graph."""


class DegreeOutOfRange(Cat0SigmaError):
    """Degree n lies outside the range covered by the piecewise formula."""


class InvalidChain(Cat0SigmaError):
    """The length chain fl(stabilizers) <= cl(chi) <= fl(G) is violated."""


class UnsupportedDimension(Cat0SigmaError):
    """Sphere drawing supports only k = 1, 2, 3."""


class UsageError(Cat0SigmaError):
    """The command line does not parse: an unknown option, a missing one, or
    a value of the wrong type."""
