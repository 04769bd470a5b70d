"""Shared error types for the verification suites.

Numerical operations in this package never return NaN/inf silently: an
argument outside an operation's domain raises DomainError, and an evaluation
point too close to a pole raises PoleProximity with the point and the pole.
"""

from __future__ import annotations


class PoleProximity(ValueError):
    """Requested evaluation point lies inside the exclusion disk of a pole."""

    def __init__(self, message: str, point, pole):
        super().__init__(message)
        self.point = point
        self.pole = pole


class NonConvergence(RuntimeError):
    """An iterative scheme failed its own convergence check.  No operation
    of the package raises it, as every quadrature is a fixed rule; perfbench
    still catches it."""


class DomainError(ValueError):
    """Arguments fall outside the validity domain of an operation."""
