"""SL(2,Z) Eisenstein series, truncation, and the rank-one inner product.

The classical series

    E(z, s) = sum over coprime (c, d) mod units of  y^s / |c z + d|^(2s)

(with (0, 1) contributing y^s) converges for Re(s) > 1 and has constant term
y^s + c(s) y^(1-s) along the cusp, c(s) = L(2s-1)/L(2s).  The truncation
operator subtracts the constant term above height y0 = exp(T), producing a
rapidly decreasing function on the fundamental domain

    D = { |Re z| <= 1/2, |z| >= 1 }.

Three evaluators of E are provided, all vectorized over arrays x, y:

* eisenstein_fourier, the production route for real s > 1: the
  Fourier-Whittaker expansion

      E(z, s) = y^s + c(s) y^(1-s) + (4 sqrt(y) / L(2s))
                sum_{n >= 1} n^(s-1/2) sigma_{1-2s}(n) K_{s-1/2}(2 pi n y)
                cos(2 pi n x)

  (Iwaniec, Spectral Methods of Automorphic Forms, ch. 3), with scipy's kv.
  Each point keeps its own N(y) terms, sized by contour.line_step so that
  the first one dropped is below 2^-53 of scale: at most eight on D, where
  y >= sqrt(3)/2.
* eisenstein_theta, the independent pointwise oracle for real s: an
  exponentially convergent incomplete-gamma representation obtained from
  the theta integral of the associated unimodular lattice sum: with
  Q(m,n) = |m z + n|^2 / y (determinant one),

      pi^(-s) Gamma(s) zeta(2s) E(z,s) = 1/(2(s-1)) - 1/(2s)
        + (1/2) sum_{(m,n) != 0} [ (pi Q)^(-s) Gamma(s, pi Q)
                                 + (pi Q)^(s-1) Gamma(1-s, pi Q) ],

  every term decaying like exp(-pi Q).  It is summed in one sweep over a
  batch: the (pair, point) terms within the cutoff pi Q <= 38 take one
  incomplete-gamma call at s and one at 1 - s, and np.bincount adds each
  point's terms in pair order.  It uses neither c(s) nor K, so the CLI
  holds the two routes to each other.
* eisenstein_direct, the direct coprime-pair sum, with the certified
  integral-comparison bound eisenstein_tail_bound on what it drops (the
  literal definition; its tail decays only like B^(2-2s), so it is the
  test oracle that uses no special function, not a route near s = 1).

The Fourier and theta routes give a point the same value bit for bit alone
or in any batch: each adds only its own terms, in a fixed order, from 0.

Lambda^T E(., s) is truncated_eisenstein(s, trunc)(x, y): the Bessel sum
alone above y0, where the constant term is removed, and the whole Fourier
route below it; c(s), L(2s) and the coefficient table are computed once per
evaluator.  The truncated inner product over D with the hyperbolic
measure dx dy / y^2 is computed by adaptive tensor Gauss-Legendre panels,
each sampled once on the nodes of both its orders, and compared against the
closed rank-one formula omega_rank1, which is the Maass-Selberg check.  That
is one expression f(s2), holomorphic out to the pole of c at 1.  It cancels
at its removable point s2 = s1, so within r/2 of s1 it is the mean of f on
the circle of radius r, half that clearance, whose nodes stay r/2 from s1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import exp1, gammaincc, kv

from .contour import circle_residue, line_step, trapezoid_circle
from .errors import DomainError, NonConvergence
from .zeta import completed_L, ratio_L, zeta

__all__ = [
    "TruncationParam",
    "QuadratureSpec",
    "QuadratureResult",
    "eisenstein_direct",
    "eisenstein_tail_bound",
    "eisenstein_theta",
    "eisenstein_fourier",
    "constant_term",
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

# Panel budget of inner_product_fd, past which it raises NonConvergence.
_MAX_PANELS = 3000


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


def _direct_points(x, y, s, bound: int):
    """Check the direct sum's domain; the points broadcast and flattened,
    with their shape."""
    if complex(s).real <= 1.0:
        raise DomainError(
            f"direct Eisenstein summation needs Re(s) > 1, got {s}")
    if bound < 3:
        raise DomainError(f"lattice bound must be at least 3, got {bound}")
    xa, ya = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                 np.asarray(y, dtype=np.float64))
    _check_points(xa, ya, "direct Eisenstein summation")
    return xa.shape, xa.ravel(), ya.ravel()


def eisenstein_direct(x, y, s, bound: int):
    """Direct coprime-pair sum truncated at max(|c|, |d|) <= bound.

    Vectorized over arrays x, y of one broadcast shape; a point outside H
    raises DomainError.  Convention: pairs are taken modulo the unit -1 by
    requiring c >= 0, with (0, 1) contributing y^s.
    """
    shape, xs, ys = _direct_points(x, y, s, bound)
    d = np.arange(-bound, bound + 1, dtype=np.int64)
    total = ys ** s
    for c in range(1, bound + 1):
        dd = d[np.gcd(np.int64(c), d) == 1].astype(np.float64)
        q = (c * xs[:, None] + dd[None, :]) ** 2 + (c * ys[:, None]) ** 2
        total = total + ys ** s * (q ** (-s)).sum(axis=1)
    return total.reshape(shape)


def eisenstein_tail_bound(x, y, s, bound: int):
    """Certified bound on what eisenstein_direct drops at the points (x, y),
    by integral comparison, with kappa the smallest eigenvalue of the form
    (c, d) -> |c z + d|^2.

    The points are flattened first, so numpy takes its array power for one
    point as for many, and a point's bound does not depend on its batch.
    """
    shape, xs, ys = _direct_points(x, y, s, bound)
    sigma = complex(s).real
    r2 = xs * xs + ys * ys
    kappa = 0.5 * ((r2 + 1.0) - np.sqrt((r2 - 1.0) ** 2 + 4.0 * xs * xs))
    b = bound - math.sqrt(2.0)
    geom = 2.0 * math.pi * (1.0 + math.sqrt(2.0) / (2.0 * b))
    return ((ys ** sigma) * kappa ** (-sigma) * geom * b ** (2.0 - 2.0 * sigma)
            / (2.0 * sigma - 2.0)).reshape(shape)


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Upper incomplete Gamma(a, x) for real a (x > 0), via the recurrence
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^(-x)) / a below a = 0."""
    if a > 0:
        return gammaincc(a, x) * math.gamma(a)
    if a == 0.0:
        return exp1(x)
    return (_upper_gamma(a + 1.0, x) - x ** a * np.exp(-x)) / a


def _lattice_pairs(x_min: float, x_max: float, y_min: float, y_max: float,
                   q_max: float) -> list[tuple[int, int]]:
    """Half-lattice pairs (m, n) that can reach Q = |m z + n|^2 / y <= q_max."""
    pairs = []
    n_top = int(math.ceil(math.sqrt(q_max * y_max))) + 1
    pairs.extend((0, n) for n in range(1, n_top + 1))
    m_top = int(math.ceil(math.sqrt(q_max / y_min))) + 1
    half = max(abs(x_min), abs(x_max))
    for m in range(1, m_top + 1):
        if m * m * y_min > q_max:
            break
        reach = math.sqrt(max(q_max * y_max - 0.0, 0.0))
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
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    ya = np.atleast_1d(np.asarray(y, dtype=np.float64))
    xa, ya = np.broadcast_arrays(xa, ya)
    scalar = np.asarray(x).ndim == 0 and np.asarray(y).ndim == 0
    if xa.size == 0:
        return np.zeros(xa.shape)
    _check_points(xa, ya, "eisenstein_theta")

    q_cut = 38.0 / math.pi
    xs, ys = xa.ravel(), ya.ravel()
    pairs = np.array(_lattice_pairs(float(xs.min()), float(xs.max()),
                                    float(ys.min()), float(ys.max()), q_cut),
                     dtype=np.int64)
    m, n = pairs[:, :1], pairs[:, 1:]
    q = (m * m * (xs * xs + ys * ys) + 2.0 * m * n * xs + n * n) / ys
    mask = q <= q_cut
    col = np.nonzero(mask)[1]
    a = math.pi * q[mask]
    terms = (a ** (-s) * _upper_gamma(s, a)
             + a ** (s - 1.0) * _upper_gamma(1.0 - s, a))
    total = np.bincount(col, weights=terms, minlength=xs.size)

    star = 0.5 / (s - 1.0) - 0.5 / s + total
    zeta2s = float(np.real(zeta(2.0 * s)))
    value = star * math.pi ** s / (math.gamma(s) * zeta2s)
    return float(value[0]) if scalar else value.reshape(xa.shape)


def _bessel_terms(y):
    """N(y), the Bessel terms kept at heights y.  n = ceil(1 / line_step(y))
    is the first with exp(-2 pi n y) <= 2^-53; keeping one term more leaves
    the first dropped term a further exp(-4 pi y) <= 1.9e-5 on D, which
    covers its prefactor 2 n^s sigma_{1-2s}(n) / L(2s)."""
    return np.ceil(1.0 / line_step(y)).astype(np.int64) + 1


def _bessel_series(s: float) -> Callable:
    """The Bessel sum of E(., s), as a function of flat arrays x, y:

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
        if not np.all(y > 0.0):
            raise DomainError("the Fourier expansion needs points of H (y > 0)")
        # K_{s-1/2}(2 pi n y) once per distinct (y, n): the x-nodes of a
        # top panel's row share one height
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


def eisenstein_fourier(x, y, s: float):
    """E(z, s) for real s > 1 from its Fourier-Whittaker expansion

        E = y^s + c(s) y^(1-s)
            + (4 sqrt(y) / L(2s)) sum_{n >= 1} n^(s-1/2) sigma_{1-2s}(n)
              K_{s-1/2}(2 pi n y) cos(2 pi n x)

    (Iwaniec, Spectral Methods of Automorphic Forms, ch. 3), each point
    summed to its own N(y) terms, at most eight on D.  Vectorized over x, y
    of one broadcast shape; a point outside H and s <= 1 raise
    DomainError.  A point's value is the same bit for bit alone or in any
    batch.
    """
    s = float(s)
    series = _bessel_series(s)
    xa, ya = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                 np.asarray(y, dtype=np.float64))
    if xa.size == 0:
        return np.zeros(xa.shape)
    _check_points(xa, ya, "eisenstein_fourier")
    xs, ys = xa.ravel(), ya.ravel()
    bessel = series(xs, ys)
    c = _c_function(s).real
    value = ys ** s + c * ys ** (1.0 - s) + bessel
    return float(value[0]) if xa.ndim == 0 else value.reshape(xa.shape)


def constant_term(y, s):
    """Cusp constant term y^s + c(s) y^(1-s), c(s) = L(2s-1)/L(2s).

    At s = 1, c(s) has a pole, and ratio_L raises PoleProximity.
    """
    s = complex(s)
    log_y = np.log(np.asarray(y, dtype=np.float64))
    out = np.exp(s * log_y) + _c_function(s) * np.exp((1.0 - s) * log_y)
    return complex(out[()]) if out.ndim == 0 else out


def truncated_eisenstein(s: float, trunc: TruncationParam) -> Callable:
    """Vectorized Lambda^T E(., s) on D for the quadrature engine.

    The Bessel sum of eisenstein_fourier, plus the constant term where
    y <= y0: above y0 nothing is subtracted, so no cancellation is left.
    c(s), L(2s) and the coefficient table are computed once per evaluator.
    Returns exactly 0 above DECAY_CUTOFF, where the remaining Fourier tail
    is below 1e-30 of scale; this keeps the top panels cheap and noise-free.
    A cut line y0 at or above DECAY_CUTOFF raises DomainError.
    """
    y0 = trunc.y0
    if y0 >= DECAY_CUTOFF:
        raise DomainError(f"truncation height {y0} above the decay "
                          f"cutoff {DECAY_CUTOFF}")
    s = float(s)
    series = _bessel_series(s)
    c = _c_function(s).real

    def truncated(x, y) -> np.ndarray:
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                     np.asarray(y, dtype=np.float64))
        out = np.zeros(xb.shape)
        live = yb <= DECAY_CUTOFF
        if np.any(live):
            xl, yl = xb[live], yb[live]
            vals = series(xl, yl)
            low = yl <= y0
            vals[low] += yl[low] ** s + c * yl[low] ** (1.0 - s)
            out[live] = vals
        return out

    return truncated


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive fundamental-domain quadrature."""

    tol: float = 1e-8
    base_order: int = 10
    y_split: float = 2.0


@dataclass
class QuadratureResult:
    """Value of an adaptive integral together with its error estimate."""

    value: complex
    error_estimate: float
    panels: int
    evaluations: int = 0


@functools.cache
def _leg_nodes(order: int):
    """Gauss-Legendre nodes on [0, 1] and the tensor weights on [0, 1]^2."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, wmat = 0.5 * (x + 1.0), np.multiply.outer(0.5 * w, 0.5 * w)
    nodes.flags.writeable = wmat.flags.writeable = False
    return nodes, wmat


class _Region:
    """The part of D below y_top, mapped from (x, t) in [-1/2, 1/2] x [0, 1]
    by y = floor(x) + (y_top - floor(x)) t over the arc floor, or with top
    set the part above y_top."""

    def __init__(self, y_top: float, top: bool = False):
        self.y_top = y_top
        self.top = top  # top regions use u = 1/y, du = dy / y^2

    def sample(self, integrand, x0, x1, t0, t1, rules):
        """The panel's integral by each Gauss-Legendre rule, from one call
        of the integrand on the nodes of every rule."""
        grids = [np.meshgrid(x0 + (x1 - x0) * nodes, t0 + (t1 - t0) * nodes,
                             indexing="ij") for nodes, _ in rules]
        X = np.concatenate([g[0].ravel() for g in grids])
        Tt = np.concatenate([g[1].ravel() for g in grids])
        if self.top:
            Y = 1.0 / Tt  # t is already u = 1/y on (0, 1/y_split]
            vals = integrand(X, Y)  # measure dy/y^2 = du
        else:
            lo = np.sqrt(np.maximum(1.0 - X * X, 0.0))
            Y = lo + (self.y_top - lo) * Tt
            vals = integrand(X, Y) * (self.y_top - lo) / (Y * Y)
        sums, start = [], 0
        for _, wmat in rules:
            block = vals[start:start + wmat.size].reshape(wmat.shape)
            start += wmat.size
            sums.append(complex(np.sum(block * wmat)) * (x1 - x0) * (t1 - t0))
        return sums


def inner_product_fd(f: Callable, g: Callable,
                     quad: QuadratureSpec) -> QuadratureResult:
    """Adaptive quadrature of integral over D of f * conj(g) dx dy / y^2.

    f and g must be vectorized callables of (x, y); when g is f, f is
    evaluated once per panel.  The domain, x in [-1/2, 1/2], is covered by
    the arc-floor region up to y_split and a top region mapped by u = 1/y
    covering [y_split, infinity).  Each panel is sampled once on the nodes
    of both its Gauss-Legendre orders, and panels are refined worst-first
    until the summed two-order error estimate meets the tolerance.
    """
    x0, x1 = -0.5, 0.5
    y_top = float(quad.y_split)
    regions = (_Region(y_top), _Region(y_top, top=True))

    def integrand(X, Y):
        if g is f:
            v = f(X, Y)
            return v * np.conj(v)
        return f(X, Y) * np.conj(g(X, Y))

    rules = (_leg_nodes(quad.base_order), _leg_nodes(2 * quad.base_order))
    evals = [0]

    def eval_panel(region: _Region, rect):
        coarse, fine = region.sample(integrand, *rect, rules)
        evals[0] += quad.base_order ** 2 + 4 * quad.base_order ** 2
        return fine, abs(fine - coarse)

    panels = []
    for region in regions:
        tmax = 1.0 / y_top if region.top else 1.0
        for (a, b) in ((x0, 0.5 * (x0 + x1)), (0.5 * (x0 + x1), x1)):
            rect = (a, b, 0.0, tmax)
            val, err = eval_panel(region, rect)
            panels.append([err, region, rect, val])

    while True:
        total_err = sum(p[0] for p in panels)
        if total_err <= quad.tol:
            break
        if len(panels) >= _MAX_PANELS:
            raise NonConvergence(
                "inner_product_fd: panel budget exhausted",
                diagnostics={"panels": len(panels), "error": total_err,
                             "tol": quad.tol})
        panels.sort(key=lambda p: -p[0])
        err, region, (a, b, c, d), _ = panels.pop(0)
        if (b - a) >= (d - c):
            cuts = ((a, 0.5 * (a + b), c, d), (0.5 * (a + b), b, c, d))
        else:
            cuts = ((a, b, c, 0.5 * (c + d)), (a, b, 0.5 * (c + d), d))
        for rect in cuts:
            val, err = eval_panel(region, rect)
            panels.append([err, region, rect, val])

    value = sum(p[3] for p in panels)
    return QuadratureResult(value=value, error_estimate=total_err,
                            panels=len(panels), evaluations=evals[0])


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


def maass_selberg_record(s1: float, s2: float, T: float,
                         quad_tol: float = 1e-6) -> dict:
    """Quadrature inner product vs closed formula for one (s1, s2, T)."""
    trunc = TruncationParam(T)
    f1 = truncated_eisenstein(s1, trunc)
    # on the diagonal one evaluator serves both sides of the product
    f2 = f1 if s2 == s1 else truncated_eisenstein(s2, trunc)
    quad = inner_product_fd(f1, f2,
                            QuadratureSpec(tol=quad_tol, y_split=trunc.y0))
    formula = omega_rank1(s1, s2, trunc)
    abs_err = abs(complex(quad.value) - formula)
    return {"s1": s1, "s2": s2, "T": T,
            "quadrature_value": complex(quad.value), "formula_value": formula,
            "abs_err": abs_err, "rel_err": abs_err / abs(formula),
            # the Bessel terms E drops at D's lowest point
            "tail_bound": max(_bessel_tail_bound(s, _Y_MIN) for s in (s1, s2)),
            "quad_error_estimate": quad.error_estimate}
