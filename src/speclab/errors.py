"""Exception hierarchy shared by all speclab modules."""


class SpecLabError(Exception):
    """Base class for all speclab errors."""


class DomainError(SpecLabError):
    """A parameter or precondition lies outside the supported domain."""


class SizeError(DomainError):
    """An exhaustive operation was asked to run above its size cap."""


class ConnectivityError(DomainError):
    """The operation requires a connected graph."""


class MultiplicityError(DomainError):
    """The second eigenvalue is not simple, so the spectral cut is undefined."""


class NumericError(SpecLabError):
    """A numeric routine failed to reach its accuracy target."""


class SchemaError(SpecLabError):
    """A serialized graph does not conform to the JSON schema."""
