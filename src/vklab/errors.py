"""Exception types shared across the package."""


class VklabError(Exception):
    """Base class for all package-specific errors."""


class GraphSizeError(VklabError, ValueError):
    """Vertex count outside the supported 1..64 range, or a join overflow."""


class Graph6ParseError(VklabError, ValueError):
    """Malformed graph6 text. Carries an optional 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DisconnectedGraphError(VklabError, ValueError):
    """Distance-based quantities were requested for a disconnected graph."""


class InvalidParamsError(VklabError, ValueError):
    """Class parameters (n, m, k) violate k >= 2 or 1 <= m <= n - k."""


class SizeCapError(VklabError, ValueError):
    """A scan or canonical-form size cap was exceeded."""
