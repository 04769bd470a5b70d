"""SL(2,Z) Eisenstein series, truncation, and the rank-one inner product.

The classical series

    E(z, s) = sum over coprime (c, d) mod units of  y^s / |c z + d|^(2s)

(with (0, 1) contributing y^s) converges for Re(s) > 1 and has constant term
y^s + c(s) y^(1-s) along the cusp, c(s) = L(2s-1)/L(2s).  The truncation
operator subtracts the constant term above height y0 = exp(T), producing a
rapidly decreasing function on the fundamental domain

    D = { |Re z| <= 1/2, |z| >= 1 }.

Two evaluators of E are provided, both vectorized over arrays x, y:

* eisenstein_fourier, the production route for real s > 1: the
  Fourier-Whittaker expansion

      E(z, s) = y^s + c(s) y^(1-s) + (4 sqrt(y) / L(2s))
                sum_{n >= 1} n^(s-1/2) sigma_{1-2s}(n) K_{s-1/2}(2 pi n y)
                cos(2 pi n x)

  (Iwaniec, Spectral Methods of Automorphic Forms, ch. 3), with K from kv,
  this module's trapezoid rule for K_nu.  Each point keeps its own N(y)
  terms, sized by contour.line_step so that the first one dropped is below
  2^-53 of scale: at most eight on D, where y >= sqrt(3)/2.
* eisenstein_theta, the independent pointwise oracle for real s: an
  exponentially convergent incomplete-gamma representation obtained from
  the theta integral of the associated unimodular lattice sum: with
  Q(m,n) = |m z + n|^2 / y (determinant one),

      pi^(-s) Gamma(s) zeta(2s) E(z,s) = 1/(2(s-1)) - 1/(2s)
        + (1/2) sum_{(m,n) != 0} [ (pi Q)^(-s) Gamma(s, pi Q)
                                 + (pi Q)^(s-1) Gamma(1-s, pi Q) ],

  every term decaying like exp(-pi Q).  It is summed in one sweep over a
  batch: the (pair, point) terms within the cutoff pi Q <= 38 take one
  call of _upper_gamma, this module's Gauss-Legendre rule for Gamma(a, x),
  at s and one at 1 - s, and np.bincount adds each point's terms in pair
  order.  It uses neither c(s) nor K, so the CLI holds the two routes to
  each other.

The direct coprime-pair sum, the literal definition, is not a route here:
its tail decays only like B^(2-2s).  It lives in the tests, with its
certified tail bound, as the oracle that uses no special function.

The Fourier and theta routes give a point the same value bit for bit alone
or in any batch: each adds only its own terms, in a fixed order, from 0,
and so do kv and _upper_gamma with their nodes.

Lambda^T E(., s) is truncated_eisenstein(s, trunc)(x, y): the Bessel sum
alone above y0, where the constant term is removed, and the whole Fourier
route below it; c(s), L(2s) and the coefficient table are computed once per
evaluator.  The truncated inner product over D with the hyperbolic
measure dx dy / y^2 is computed by one fixed tensor Gauss-Legendre rule on
two regions split at y0, log-uniform in y over the arc floor and uniform in
1/y above, each sampled once on the nodes of two orders, and compared
against the closed rank-one formula omega_rank1, which is the Maass-Selberg
check.  That is one expression f(s2), holomorphic out to the pole of c at
1.  It cancels at its removable point s2 = s1, so within r/2 of s1 it is
the mean of f on the circle of radius r, half that clearance, whose nodes
stay r/2 from s1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour import (circle_residue, gaussian_width, line_step,
                      trapezoid_circle)
from .errors import DomainError
from .zeta import completed_L, ratio_L, zeta

__all__ = [
    "TruncationParam",
    "QuadratureSpec",
    "QuadratureResult",
    "eisenstein_theta",
    "eisenstein_fourier",
    "truncated_eisenstein",
    "inner_product_fd",
    "omega_rank1",
    "maass_selberg_record",
]

# Height above which a truncated series (for the s ranges used here) is
# below 1e-30 of scale; evaluators return exactly 0 beyond it.
DECAY_CUTOFF = 12.0

# D's lowest point, at x = +-1/2 on the arc |z| = 1.
_Y_MIN = math.sqrt(3.0) / 2.0


# K_nu(x) = e^-x int_0^inf e^(-2x sinh(t/2)^2) cosh(nu t) dt (DLMF 10.32.9,
# with cosh t - 1 = 2 sinh(t/2)^2), by the trapezoid rule on the half line.
# Length: in u = sinh(t/2) the first factor is a Gaussian of rate 2x, so x
# takes the nodes with u <= gaussian_width(2x) = gaussian_width(2)/sqrt(x);
# cosh(nu t) <= (2 cosh t)^nu = (2 + 4u^2)^nu is its polynomial factor, of
# degree 2 nu <= 4.4 for the orders s - 1/2, s <= 2.7, used here.  Step: the
# sum of step h errs by the integrand's Fourier transform at w = 2 pi/h
# (Trefethen and Weideman), at most exp(-w^2/2x) of K: the transform of the
# Gaussian e^(-x t^2/2) it is near t = 0, a Gaussian of rate 1/2x in w.  So
# w is that Gaussian's window half-width at x = 45, past 43.5 = 2 pi N y at
# D's floor y = sqrt(3)/2, the largest argument of a term kept there:
# h = 0.0998.  Past x = 45 the relative error exp(-w^2/2x) grows, but K is
# below e^-x there, so every term errs by at most exp(-x - w^2/2x) <= e^-89.
_KV_STEP = 2 * math.pi / gaussian_width(1 / (2 * 45.0))


def kv(nu: float, x: np.ndarray) -> np.ndarray:
    """K_nu(x) for real nu and an array x > 0, by the rule above.  Node k
    reaches the x < (gaussian_width(2) / u_k)^2, a prefix of the distinct x
    sorted, so each point adds only its own nodes, in t order from 0."""
    xs, at = np.unique(x, return_inverse=True)
    top = int(2.0 * math.asinh(gaussian_width(2.0 * xs[0])) / _KV_STEP) + 2
    u = np.sinh(0.5 * _KV_STEP * np.arange(top))
    ends = np.searchsorted(xs, (gaussian_width(2.0) / u[1:]) ** 2)
    total = np.full(xs.size, 0.5)
    for k, (v, end) in enumerate(zip(u[1:].tolist(), ends.tolist()), 1):
        gauss = np.exp(-2.0 * v * v * xs[:end])
        total[:end] += math.cosh(nu * k * _KV_STEP) * gauss
    return (_KV_STEP * np.exp(-xs) * total)[at]


@dataclass(frozen=True)
class TruncationParam:
    """Truncation height parameter T; the cut line sits at y0 = exp(T)."""

    T: float

    def __post_init__(self):
        if not self.y0 > 1.0:
            raise DomainError(f"truncation needs T > 0 (y0 > 1), got {self.T}")

    @property
    def y0(self) -> float:
        return math.exp(self.T)


def _check_points(x: np.ndarray, y: np.ndarray, name: str):
    """Refuse any point outside H: each x finite and each y in (0, inf)."""
    if not np.all(np.isfinite(x) & np.isfinite(y) & (y > 0.0)):
        raise DomainError(f"{name} needs points of H (finite x, 0 < y < inf)")


@functools.cache
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights of order on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


# Gamma(a, x) = x^a e^-x int_0^inf e^(a u - x(e^u - 1)) du, with t = x e^u.
# Length: e^-(t - x) is a Gaussian of rate 1 in sqrt(t - x), whose window
# ends at t - x = gaussian_width(1)^2 = 44, so at u = U = log1p(44/x).
# Order: the integrand is entire, and on the Bernstein ellipse of [0, U]
# with semi-minor axis pi/2, where Re e^u >= 0, it is at most e^(x + a Re u).
# For x >= 0.2 (U <= 5.4, so the ellipse's rho >= 1.74) Gauss-Legendre of
# order n errs by about rho^-2n of that bound, e^-71 at 64 nodes, and the
# bound exceeds the integral by at most e^11 for a <= 2.7: e^-58 in all.
def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete Gamma(a, x) for real a and an array x > 0, by the
    rule above: each point's own nodes, added in node order from 0."""
    span = np.log1p(gaussian_width(1.0) ** 2 / x)
    total = np.zeros(x.shape)
    for node, weight in zip(*_legendre_rule(64)):
        u = node * span
        total += weight * np.exp(a * u - x * np.expm1(u))
    return x ** a * np.exp(-x) * span * total


# The theta series keeps the (pair, point) terms with Q <= _Q_CUT, that is
# pi Q <= 38: each term decays like exp(-pi Q), and e^-38 = 3.1e-17.
_Q_CUT = 38.0 / math.pi


def _lattice_pairs(x_min: float, x_max: float, y_min: float,
                   y_max: float) -> list[tuple[int, int]]:
    """Half-lattice pairs (m, n) that can reach Q = |m z + n|^2 / y within
    the cutoff _Q_CUT."""
    reach = math.sqrt(_Q_CUT * y_max)
    pairs = [(0, n) for n in range(1, int(math.ceil(reach)) + 2)]
    half = max(abs(x_min), abs(x_max))
    for m in range(1, int(math.ceil(math.sqrt(_Q_CUT / y_min))) + 2):
        if m * m * y_min > _Q_CUT:
            break
        n_lo = int(math.floor(-m * half - reach)) - 1
        n_hi = int(math.ceil(m * half + reach)) + 1
        pairs.extend((m, n) for n in range(n_lo, n_hi + 1))
    return pairs


def eisenstein_theta(x, y, s: float):
    """E(z, s) for real s > 1 via the incomplete-gamma representation.

    Vectorized over arrays x, y of points of H (finite x, 0 < y < inf, else
    DomainError); every lattice term decays like exp(-pi Q), so the cutoff
    pi Q <= 38 leaves an error below 1e-16 of scale.

    One sweep over the batch: Q of every (pair, point) is one (P, N) array,
    the terms with Q within the cutoff take one incomplete-gamma call at s
    and one at 1 - s, and np.bincount sums each point's terms.  A point's
    value does not depend on its batch: the batch's pair set contains the
    point's own, the pairs beyond it are masked out and add nothing, and
    bincount adds a point's terms in pair order starting from 0.  Memory
    is (pairs) x (points) per temporary, and the pair count grows like
    1 / y_min as the batch's lowest point nears the real axis.
    """
    s = float(s)
    if s <= 1.0:
        raise DomainError(f"eisenstein_theta needs real s > 1, got {s}")
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                 np.asarray(y, dtype=np.float64))
    _check_points(xb, yb, "eisenstein_theta")
    if xb.size == 0:
        return np.zeros(xb.shape)

    xs, ys = xb.ravel(), yb.ravel()
    pairs = np.array(_lattice_pairs(float(xs.min()), float(xs.max()),
                                    float(ys.min()), float(ys.max())),
                     dtype=np.int64)
    m, n = pairs[:, :1], pairs[:, 1:]
    q = (m * m * (xs * xs + ys * ys) + 2.0 * m * n * xs + n * n) / ys
    mask = q <= _Q_CUT
    col = np.nonzero(mask)[1]
    a = math.pi * q[mask]
    terms = (a ** (-s) * _upper_gamma(s, a)
             + a ** (s - 1.0) * _upper_gamma(1.0 - s, a))
    total = np.bincount(col, weights=terms, minlength=xs.size)

    star = (0.5 / (s - 1.0) - 0.5 / s + total).reshape(xb.shape)
    zeta2s = float(np.real(zeta(2.0 * s)))
    value = star * math.pi ** s / (math.gamma(s) * zeta2s)
    return float(value) if value.ndim == 0 else value


def _bessel_terms(y):
    """N(y), the Bessel terms kept at heights y.  n = ceil(1 / line_step(y))
    is the first with exp(-2 pi n y) <= 2^-53; keeping one term more leaves
    the first dropped term a further exp(-4 pi y) <= 1.9e-5 on D, which
    covers its prefactor 2 n^s sigma_{1-2s}(n) / L(2s)."""
    return np.ceil(1.0 / line_step(y)).astype(np.int64) + 1


def _bessel_series(s: float) -> Callable:
    """The Bessel sum of E(., s), as a function of flat arrays x, y of
    points of H, which its callers check (_check_points):

        sum_{n <= N(y)} a_n sqrt(y) K_{s-1/2}(2 pi n y) cos(2 pi n x),
        a_n = 4 n^(s-1/2) sigma_{1-2s}(n) / L(2s).

    L(2s) and the a_n table for D are computed once; a batch below D's
    floor gets a longer table of its own.  K is taken once per distinct
    (y, n) of the batch, on the argument a point alone would give it.  Only
    each point's own N(y) terms are formed, and np.bincount adds them in n
    order from 0, so a point's value is the same bit for bit alone or in
    any batch.
    """
    if not (s > 1.0 and math.isfinite(s)):
        raise DomainError(f"the Fourier expansion needs real s > 1, got {s}")
    scale = 4.0 / float(np.real(completed_L(2.0 * s)))

    def coefficients(n_max: int) -> np.ndarray:
        sigma = np.zeros(n_max + 1)
        for d in range(1, n_max + 1):
            sigma[d::d] += d ** (1.0 - 2.0 * s)
        return scale * np.arange(1.0, n_max + 1.0) ** (s - 0.5) * sigma[1:]

    table = coefficients(int(_bessel_terms(_Y_MIN)))

    def series(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # K_{s-1/2}(2 pi n y) once per distinct (y, n): the x-nodes of one
        # u = 1/y in the upper region of inner_product_fd share one height
        heights, at = np.unique(y, return_inverse=True)
        terms = _bessel_terms(heights)
        top = int(terms.max())
        a = table if top <= table.size else coefficients(top)
        n = np.arange(1, top + 1)[:, None]
        k, row = np.nonzero(n <= terms)
        bessel = np.zeros((top, heights.size))
        bessel[k, row] = kv(s - 0.5, 2.0 * math.pi * (k + 1.0) * heights[row])
        k, col = np.nonzero(n <= terms[at])
        vals = (a[k] * bessel[k, at[col]]
                * np.cos(2.0 * math.pi * (k + 1.0) * x[col]))
        return np.sqrt(y) * np.bincount(col, weights=vals, minlength=x.size)

    return series


def _bessel_tail_bound(s: float, y: float) -> float:
    """Bound on the Bessel terms past N(y) that E(., s) drops at height y.

    With |cos| <= 1, sigma_{1-2s}(n) <= n, 1 / L(2s) <= pi^s / Gamma(s)
    (zeta(2s) >= 1), and K_nu(x) <= sqrt(pi / 2x) e^(-x) (1 - (nu - 1/2) /
    2x)^(-(nu + 1/2)) for nu = s - 1/2 >= 1/2 (DLMF 10.32.8 with
    1 + u/2x <= e^(u/2x)), term n is at most k (2 pi^s / Gamma(s)) n^s q^n,
    q = exp(-2 pi y), and k taken at the first dropped n bounds every later
    one.  The terms' ratio falls with n, so the tail is at most the first
    term over one less its ratio.
    """
    first = int(_bessel_terms(y)) + 1
    nu, x = s - 0.5, 2.0 * math.pi * first * y
    k = (1.0 - (nu - 0.5) / (2.0 * x)) ** (-(nu + 0.5))
    q = math.exp(-2.0 * math.pi * y)
    ratio = ((first + 1.0) / first) ** s * q
    lead = 2.0 * k * math.pi ** s / math.gamma(s) * first ** s * q ** first
    return lead / (1.0 - ratio)


def _fourier_expansion(s: float, y0: float, cutoff: float) -> Callable:
    """E(., s) by its Fourier expansion, as a function of x, y of one
    broadcast shape: the Bessel sum, plus the constant term where y <= y0,
    and exactly 0 above cutoff.  c(s), L(2s) and the coefficient table are
    computed once per evaluator.  A point outside H raises DomainError."""
    s = float(s)
    series = _bessel_series(s)
    c = _c_function(s).real

    def expansion(x, y) -> np.ndarray:
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                     np.asarray(y, dtype=np.float64))
        _check_points(xb, yb, "the Fourier expansion")
        out = np.zeros(xb.shape)
        live = yb <= cutoff
        if np.any(live):
            xl, yl = xb[live], yb[live]
            vals = series(xl, yl)
            low = yl <= y0
            vals[low] += yl[low] ** s + c * yl[low] ** (1.0 - s)
            out[live] = vals
        return out

    return expansion


def eisenstein_fourier(x, y, s: float):
    """E(z, s) for real s > 1 from its Fourier-Whittaker expansion

        E = y^s + c(s) y^(1-s)
            + (4 sqrt(y) / L(2s)) sum_{n >= 1} n^(s-1/2) sigma_{1-2s}(n)
              K_{s-1/2}(2 pi n y) cos(2 pi n x)

    (Iwaniec, Spectral Methods of Automorphic Forms, ch. 3), each point
    summed to its own N(y) terms, at most eight on D: the evaluator of
    truncated_eisenstein with no cut line and no cutoff.  Vectorized over
    x, y of one broadcast shape, a float for a point; a point outside H and
    s <= 1 raise DomainError.  A point's value is the same bit for bit
    alone or in any batch.
    """
    value = _fourier_expansion(s, math.inf, math.inf)(x, y)
    return float(value) if value.ndim == 0 else value


def truncated_eisenstein(s: float, trunc: TruncationParam) -> Callable:
    """Vectorized Lambda^T E(., s) on D for the quadrature engine.

    The Bessel sum of eisenstein_fourier, plus the constant term where
    y <= y0: above y0 nothing is subtracted, so no cancellation is left.
    Returns exactly 0 above DECAY_CUTOFF, where the remaining Fourier tail
    is below 1e-30 of scale; this keeps the nodes of the rule's upper
    region near u = 0 cheap and noise-free.  A point outside H, or a cut
    line y0 at or above DECAY_CUTOFF, raises DomainError.
    """
    y0 = trunc.y0
    if y0 >= DECAY_CUTOFF:
        raise DomainError(f"truncation height {y0} above the decay "
                          f"cutoff {DECAY_CUTOFF}")
    return _fourier_expansion(s, y0, DECAY_CUTOFF)


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre order and region split of the fixed rule over D."""

    base_order: int = 10
    y_split: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.y_split) and self.y_split > 1.0):
            raise DomainError(f"the region split needs 1 < y_split < inf, "
                              f"got {self.y_split}")


@dataclass
class QuadratureResult:
    """Value of the rule over D and its node-doubling difference.

    value is the sum on the tensor nodes of 2 base_order per axis, and
    error_estimate is |value - coarse|, coarse the sum on base_order nodes:
    the error of the coarse sum, not a bound on value's, and in the same
    absolute units as value.  On the Maass-Selberg integrands it exceeds
    value's error against the closed form by three to five orders of
    magnitude: at maass_selberg_record(1.001, 1.001, 0.01) it reads 9.0e-7
    where value is 3.6e-10 from the closed form (a relative 6.9e-15 of
    5.2e4).
    """

    value: complex
    error_estimate: float
    panels: int
    evaluations: int = 0


@functools.cache
def _tensor_rule(order: int):
    """The tensor Gauss-Legendre rule of order^2 nodes on [0, 1]^2, as flat
    arrays: the nodes' first and second coordinates and their weights."""
    nodes, w = _legendre_rule(order)
    rule = (np.repeat(nodes, order), np.tile(nodes, order),
            np.outer(w, w).ravel())
    for part in rule:
        part.flags.writeable = False
    return rule


def inner_product_fd(f: Callable, g: Callable,
                     quad: QuadratureSpec) -> QuadratureResult:
    """Integral over D of f * conj(g) dx dy / y^2 by one fixed rule.

    f and g must be vectorized callables of (x, y); when g is f, f is
    evaluated once per region.  Both regions take x in [-1/2, 1/2] whole.
    Below y_split, v = log y runs from log sqrt(1 - x^2) up to log y_split,
    with dx dy / y^2 = e^(-v) dv dx; above it, u = 1/y runs over
    (0, 1/y_split], with dy / y^2 = du.  Each region is sampled once, in
    one call of each function, on the tensor Gauss-Legendre nodes of
    base_order and of 2 base_order; the value is the finer sum and
    error_estimate its distance from the coarser one, an error of the
    coarser sum, not of the value (see QuadratureResult).
    """
    (x_coarse, t_coarse, w_coarse), (x_fine, t_fine, w_fine) = (
        _tensor_rule(quad.base_order), _tensor_rule(2 * quad.base_order))
    X = np.concatenate((x_coarse, x_fine)) - 0.5
    t = np.concatenate((t_coarse, t_fine))
    log_floor, log_top = 0.5 * np.log1p(-X * X), math.log(quad.y_split)
    y_low = np.exp(log_floor + (log_top - log_floor) * t)
    regions = ((y_low, (log_top - log_floor) / y_low),
               (quad.y_split / t, 1.0 / quad.y_split))

    n = w_coarse.size
    coarse = fine = 0j
    for Y, jacobian in regions:
        v = f(X, Y)
        vals = (v * np.conj(v) if g is f else v * np.conj(g(X, Y))) * jacobian
        coarse += complex(np.sum(vals[:n] * w_coarse))
        fine += complex(np.sum(vals[n:] * w_fine))
    return QuadratureResult(value=fine, error_estimate=abs(fine - coarse),
                            panels=2, evaluations=10 * quad.base_order ** 2)


def _c_function(s) -> complex:
    """c(s) = L(2s-1)/L(2s)."""
    return complex(ratio_L(2.0 * s - 1.0))


def omega_rank1(s1: float, s2: float, trunc: TruncationParam) -> complex:
    """Closed form for the truncated-series inner product (rank one).

    For real s1, s2 in the convergence range (1, 3/2] it is f(s2), with

        f(w) = y0^(s1+w-1)/(s1+w-1) + c(w) y0^(s1-w)/(s1-w)
                 + c(s1) y0^(w-s1)/(w-s1) + c(s1) c(w) y0^(1-s1-w)/(1-s1-w).

    The middle pair's poles at w = s1 cancel, so f is holomorphic on
    |w - s2| < s2 - 1: its clearance is the pole of c at w = 1, as L(2w)
    has no zero there and 1 - s1 < 0.  The pair's values cancel too, losing
    digits like 1/|w - s1|.  So within r/2 of s1, r = (s2 - 1)/2, f(s2) is
    its mean on the circle |w - s2| = r (54 nodes, clearance 2r), each
    node at least r/2 from s1, the least distance the direct branch meets.
    """
    for s in (s1, s2):
        if not (1.0 < s <= 1.5):
            raise DomainError(f"omega_rank1 needs s in (1, 3/2], got {s}")
    y0 = trunc.y0
    c1 = _c_function(s1)

    def f(w):
        c2 = ratio_L(2.0 * w - 1.0)
        return sum(c * y0 ** e / e for c, e in (
            (1.0, s1 + w - 1.0), (c2, s1 - w), (c1, w - s1),
            (c1 * c2, 1.0 - s1 - w)))

    r = 0.5 * (s2 - 1.0)
    if abs(s1 - s2) >= 0.5 * r:
        return complex(f(s2))
    return complex(circle_residue(lambda u: f(s2 + u) / u,
                                  trapezoid_circle(r, s2 - 1.0)))


def maass_selberg_record(s1: float, s2: float, T: float) -> dict:
    """Quadrature inner product vs closed formula for one (s1, s2, T): the
    two values and rel_err, their relative distance, with tail_bound and
    quad_error_estimate.

    quad_error_estimate is the rule's error_estimate, |fine - coarse|, an
    absolute difference: the coarse sum's error, three to five orders of
    magnitude above quadrature_value's distance from the closed form (see
    QuadratureResult).
    """
    trunc = TruncationParam(T)
    f1 = truncated_eisenstein(s1, trunc)
    # on the diagonal one evaluator serves both sides of the product
    f2 = f1 if s2 == s1 else truncated_eisenstein(s2, trunc)
    quad = inner_product_fd(f1, f2, QuadratureSpec(y_split=trunc.y0))
    formula = omega_rank1(s1, s2, trunc)
    return {"quadrature_value": quad.value, "formula_value": formula,
            "rel_err": abs(quad.value - formula) / abs(formula),
            # the Bessel terms E drops at D's lowest point
            "tail_bound": max(_bessel_tail_bound(s, _Y_MIN) for s in (s1, s2)),
            "quad_error_estimate": quad.error_estimate}
