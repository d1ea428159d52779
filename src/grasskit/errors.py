"""Shared exception types."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition (shape, finiteness, range)."""


class OutOfChartError(ValueError):
    """A plane is not representable in the local chart (non-transverse or
    its chart coordinates leave the box)."""


class InvalidScaleError(InvalidInputError):
    """A resolution parameter is outside (0, 1]."""


class ResourceCapError(RuntimeError):
    """A computation would exceed a configured memory/size guard."""


class CertificateError(RuntimeError):
    """A certificate that the construction guarantees came out invalid
    (a numerical breakdown, not bad input)."""
