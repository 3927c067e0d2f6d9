"""Error types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can map
failures to exit codes and emit structured error JSON.
"""

from __future__ import annotations


class OsbkError(Exception):
    """Base class; ``code`` is a short stable identifier."""

    code = "error"


class ConfigError(OsbkError):
    """Bad configuration: unknown keys, wrong types, malformed JSON."""

    code = "config"


class DomainError(OsbkError):
    """Input outside an operation's domain (e.g. a point on or inside an ellipsoid)."""

    code = "domain"


class ImmersionError(OsbkError):
    """A parametric table failed its immersion (full-rank Jacobian) requirement."""

    code = "immersion"


class ClosureError(OsbkError):
    """Even-length midpoint polygon whose alternating sum does not vanish.

    ``defect`` holds the alternating-sum vector.
    """

    code = "closure"

    def __init__(self, message: str, defect) -> None:
        super().__init__(message)
        self.defect = defect


class UnstableCountError(OsbkError):
    """Root counting refused near the wall; carries both bracketing counts."""

    code = "unstable-count"

    def __init__(self, message: str, lower: int, upper: int) -> None:
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class DegeneratePencilError(OsbkError):
    """Conic pair data so degenerate that the solution set is not finite."""

    code = "degenerate-pencil"


class SearchFailedError(OsbkError):
    """A search or an iteration found nothing that meets its conditions."""

    code = "search-failed"


class LinearAlgebraError(OsbkError):
    """A numpy linear-algebra routine failed, such as an SVD that did not converge."""

    code = "linalg"


class ConsistencyError(OsbkError):
    """Two independent routes to the same answer disagreed."""

    code = "consistency"
