"""Exception hierarchy shared by every module.

Each error carries a stable machine-readable ``kind`` string (used verbatim
in CLI JSON output) and an ``exit_code``: 1 for input/validation problems,
2 for computational failures (no real root, rank mismatch, failed placement).
"""

from __future__ import annotations


class SoddyError(Exception):
    """Base class; ``kind`` and ``exit_code`` are stable across releases."""

    kind = "error"
    exit_code = 2

    def __init__(self, message: str, *, exit_code: int | None = None):
        super().__init__(message)
        if exit_code is not None:
            self.exit_code = exit_code


class ValidationError(SoddyError):
    """Malformed or inconsistent input."""

    kind = "validation"
    exit_code = 1


class DimensionError(ValidationError):
    """Shape mismatch: non-square matrix, wrong vector length, bad point dim."""

    kind = "dimension"


class NonFiniteError(ValidationError):
    """NaN or infinity where float mode requires finite values."""

    kind = "non-finite"


class ModeMismatchError(ValidationError):
    """Exact and float scalars mixed inside one computation."""

    kind = "mode-mismatch"


class NoRealSolutionError(SoddyError):
    """Negative discriminant: no real curvature completes the configuration."""

    kind = "no-real-solution"


class FloatModeRequiredError(SoddyError):
    """Exact mode cannot represent an irrational square root; rerun in float mode."""

    kind = "float-required"


class InconsistentConfigurationError(SoddyError):
    """Curvatures do not satisfy the tangency identity within tolerance."""

    kind = "inconsistent-configuration"


class RankExceedsDimError(SoddyError):
    """Distance matrix needs more dimensions than the embedding target allows."""

    kind = "rank-exceeds-dim"


class NegativeEigenvalueError(SoddyError):
    """Distance matrix is not realizable in Euclidean space of any dimension."""

    kind = "negative-eigenvalue"


class NoSolutionError(SoddyError):
    """Trilateration distances are mutually inconsistent."""

    kind = "no-solution"


class AmbiguousSolutionError(SoddyError):
    """Trilateration is underdetermined beyond a single reflection choice."""

    kind = "ambiguity"


class SeedError(SoddyError):
    """Gasket seed curvatures are unusable (zero curvature, bad count, ...)."""

    kind = "seed"
    exit_code = 1


class GeometryError(SoddyError):
    """Circle placement failed or violated a tangency audit."""

    kind = "geometry"
