"""Exception types shared across the package."""


class MacronetError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MacronetError):
    """Malformed text input. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(MacronetError):
    """Structurally valid input whose content violates a schema constraint."""


class ValidationError(MacronetError):
    """Input that is well-formed but semantically invalid (e.g. off-race builds)."""


class ConsistencyError(MacronetError):
    """An event sequence that no legal game could have produced."""


class FormatError(MacronetError):
    """Corrupt or truncated binary file."""


class CompatibilityError(MacronetError):
    """Model and pipeline artifacts (catalog/norms/mask) do not match."""


class DegenerateDistributionError(MacronetError):
    """A distribution no decision can be drawn from: a network output that is
    not finite, a distribution whose total is not finite or is zero, or an
    exclusion set that removes (essentially) all probability mass."""


class ProtocolError(MacronetError):
    """Malformed wire message or framing violation."""


class ClientTimeout(MacronetError):
    """The prediction service did not answer within the deadline."""
