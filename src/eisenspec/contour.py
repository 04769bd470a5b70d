"""Trapezoid rules on circles and lines, each sized from the distance of its
nearest singularity so that its error bound is at most 2^-53 (Trefethen and
Weideman, SIAM Rev. 56, 2014), the exact error that a simple pole off a
line adds to its trapezoid sum, and the half-widths of line windows from
the Gaussian decay of their integrand, so that the tail they cut off is as
small.  The one module that forms circle nodes or spells out that sizing
or that pole factor; it imports numpy and math only."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["circle_nodes", "trapezoid_circle", "circle_residue", "line_step",
           "pole_factor", "gaussian_width", "window"]

_DIGITS = 53.0 * math.log(2.0)  # each rule errs by <= exp(-_DIGITS) = 2^-53


def circle_nodes(radius: float, nodes: int) -> np.ndarray:
    """The offsets u = radius * exp(2 pi i k / nodes) of a trapezoid circle."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    return radius * np.exp(1j * theta)


def trapezoid_circle(radius: float, clearance: float) -> tuple[float, int]:
    """The (radius, nodes) circle of circle_residue: clearance is the
    distance from its centre to the nearest other singularity, N nodes err
    by (radius/clearance)^N of scale, and nodes is the fewest even N with
    that <= 2^-53."""
    if not 0.0 < radius < clearance:
        raise ValueError(f"trapezoid_circle needs 0 < radius < clearance, "
                         f"got {radius}, {clearance}")
    n = math.ceil(_DIGITS / math.log(clearance / radius))
    return radius, n + n % 2


def circle_residue(f, *circles):
    """(1/2pi i)^k oint ... oint f du_1 ... du_k by the trapezoid rule.

    Each circle is a (radius, nodes) pair, outermost first.  f gets the k
    node arrays, once, and returns values whose last k axes run over the
    circles (or broadcast to them); leading axes are kept.  The result is
    the mean of f u_1 (x) ... (x) u_k over the circle axes."""
    us = [circle_nodes(radius, nodes) for radius, nodes in circles]
    weight = us[0]
    for u in us[1:]:
        weight = np.multiply.outer(weight, u)
    return np.mean(f(*us) * weight, axis=tuple(range(-len(us), 0)))


def line_step(distance: float) -> float:
    """The largest step h with exp(-2 pi distance / h) <= 2^-53: the error
    bound of the trapezoid rule on an integrand analytic in the strip
    |Im t| < distance."""
    return 2.0 * math.pi * distance / _DIGITS


def pole_factor(distance: float, step: float) -> float:
    """1/(exp(2 pi distance / step) - 1): on the line z = z0 + it, a simple
    pole of z-residue R at Re z = Re z0 - distance, distance > 0, makes the
    trapezoid sum of step h exceed the integral by R times this, both in
    the (1/2pi) dt measure (the pole's term of the sum's error, Trefethen
    and Weideman, SIAM Rev. 56, 2014)."""
    if not 0.0 < distance < math.inf:
        raise ValueError(f"pole_factor needs 0 < distance < inf, got "
                         f"{distance}")
    return 1.0 / math.expm1(2.0 * math.pi * distance / step)


def gaussian_width(rate: float) -> float:
    """The half-width W = sqrt(44/rate) of a window on an integrand whose
    Gaussian factor is exp(-rate t^2): that factor is exp(-44) at the edge,
    and 44 is _DIGITS = 36.7 plus 7.3 for a polynomial factor of degree
    <= 4 and for the length of the edge."""
    if not 0.0 < rate < math.inf:
        raise ValueError(f"gaussian_width needs 0 < rate < inf, got {rate}")
    return math.sqrt(44.0 / rate)


def window(width: float, step: float) -> tuple[np.ndarray, float]:
    """The nodes t = k step, |t| <= width rounded up to a whole step, and
    the step."""
    n = int(math.ceil(width / step))
    return step * np.arange(-n, n + 1, dtype=np.float64), step
