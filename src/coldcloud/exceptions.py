"""Package-specific error types."""

from __future__ import annotations

__all__ = ["SeriesConvergenceError"]


class SeriesConvergenceError(RuntimeError):
    """A truncated series did not converge within its term cap."""
