"""Contour-shift verification of the K-invariant spectral decomposition.

For entire test profiles Phi(lam) = Q(lam) exp(beta <lam, lam>) the shifted
scalar-product integral

    shifted = sum over Weyl elements s of
        (1/2pi)^r  integral over lam0 + i R^r  of
        m(s, lam) Phi(lam) conj(Phi(-s conj(lam)))  dt

is independent of the base point lam0 in the convergence cone, and moving
lam0 to 0 converts it into spectral contributions:

* GL(2): shifted = A + C (one pole crossed).
* GL(3): shifted = A + B + C, where B collects the three singular-line
  integrals with the rank-one kernel n_ij / L(2).

On both, A is the |W|-term integral over the imaginary axis or plane
(equivalently (1/|W|) integral of |F|^2 with F = sum_s m(s,.)^(-1)
Phi(s .)), and C = |Phi(rho)|^2 / vol is the point mass at the residue of
the trivial representation, vol = L(2) on GL(2) and L(2) L(3) on GL(3).
The shifted integral and A are one rank-generic evaluator.

The same residues give the exact error of the plane's trapezoid rule of
step h: a simple pole d off the line adds R/(e^(2 pi d/h) - 1) to its sum
(contour.pole_factor).  So with e_k = pole_factor(lam0_k - 1, h),

    shifted = raw - e_1 Line_1 - e_2 Line_2 + e_1 e_2 RR   (GL(3)),
    shifted = raw - e_1 C                                  (GL(2)),

Line_k the residue across the pole plane z_k = 1 summed on the plane's
nodes of the other coordinate, RR the double residue at rho.  The corner
enters with a + sign: the summed Line_2 holds e_1 RR once too many.
Corrected, the plane's nearest singularity is 1 off, and its step is the
derived line_step(1.0).

Working in the coordinates z_k = <lam, alpha_check_k> with measure
(1/2pi) dt per real dimension, the iterated one-variable residue theorem
gives measure constants kappa_B = kappa_C = 1: shifting z_1 then z_2
deposits each line at its self-dual position Re(lam) = delta_i with a
(1/2pi)|dz| line measure, the four double residues at the fundamental
weights cancel in pairs, and only the rho point survives.  The suite also
re-derives both constants per run, kappa_B from the residue lines along
the singular lines (R1 = Res_{s=1} ratio_L from a circle of its own) and
kappa_C by iterated circles of the full integrand at rho, so their
test-function independence is checked rather than presumed.

conj(Phi(-s conj(lam))) is evaluated as Phi*(-s lam) with Phi* the
coefficient-conjugated profile, which is entire in lam; this is what makes
the contour shift legitimate.

What does not depend on the profile is computed once per process and
cached on exact keys; no value of ratio_L on a grid is.  Per frame (base,
x_dir, y_dir) of weights: the lines of lam and of -w lam for every Weyl
element (from WeylElement.act_coords) and their monomial tables, so that
Q(lam), Q*(-w lam) and <lam, lam> are sums of tables weighted by the
profile's coefficients, six 3 x 3 tables at degree <= 2 on GL(3)
(_frame_tables).  Per root datum: the Gram matrix in floats and R1 on its
circle, keyed by the circle too.  The correction lines and the corner
of the pole-corrected plane ride the plane's own evaluation of the
integrand (_plane_terms), so their ratio_L arguments go into the plane's
one stacked call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .contour import (circle_residue, gaussian_width, line_step,
                      pole_factor, trapezoid_circle, window)
from .errors import DomainError
from .gl3 import (DOUBLE_CIRCLES, GL3, delta_weight, lambda_line,
                  line_direction, line_root, n_matrix, named_weyl, sigma,
                  volume_constant)
from .intertwine import m_on_grid
from .roots import RootDatum, Weight
from .zeta import completed_L

__all__ = [
    "PaleyWienerGaussian",
    "SpectralReport",
    "shifted_norm_gl2",
    "decomposed_norm_gl2",
    "shifted_norm_gl3",
    "contribution_A",
    "contribution_B",
    "contribution_C",
    "measure_constants",
    "parseval_check_gl3",
]

# The (radius, nodes) circle of R1 = Res_{s=1} ratio_L, the factor of every
# residue line (_residue_line), as the mean of u ratio_L(1 + u).  Past the
# pole at u = 0 the next singularity of ratio_L(1 + u) is a zero 1/2 +
# i gamma of L(2 + u), at |u| > 14 (u = -1 is removable).  The clearance is
# 1 all the same: the bound (radius / clearance)^N is in units of |u
# ratio_L(1 + u)| on |u| = clearance, 2.7 at 1 and 20 at 13, against the
# residue 1.9.  R1 comes from this circle and not from 1/L(2), so that a
# fault in completed_L, which B divides by, cannot cancel in kappa_B.
_RESIDUE_CIRCLE = trapezoid_circle(0.1, 1.0)


@dataclass(frozen=True)
class PaleyWienerGaussian:
    """Entire profile Q(lam) * exp(beta <lam, lam>) in weight coordinates.

    poly_coeffs maps exponent tuples (one exponent per fundamental-weight
    coordinate) to complex coefficients.  beta > 0 gives Gaussian decay on
    every vertical contour, which is all the Paley-Wiener input the contour
    shifts actually use.
    """

    datum: RootDatum
    beta: float
    poly_coeffs: Mapping[tuple[int, ...], complex] = field(
        default_factory=lambda: {(): 1.0})

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise DomainError("PaleyWienerGaussian needs 0 < beta < inf")

    def _poly(self, coords: tuple) -> np.ndarray | complex:
        value = 0.0 + 0.0j
        for expo, coeff in self.poly_coeffs.items():
            term = complex(coeff)
            for k in range(len(expo)):
                if expo[k]:
                    term = term * coords[k] ** expo[k]
            value = value + term
        return value

    def _gram_form(self, coords: tuple):
        """Bilinear <lam, lam> as a function of the coordinates."""
        gram = _gram(self.datum)
        total = 0.0
        r = self.datum.rank
        for i in range(r):
            for j in range(r):
                total = total + gram[i][j] * coords[i] * coords[j]
        return total

    def value_coords(self, *coords):
        """Phi on (arrays of) fundamental-weight coordinates."""
        cs = tuple(np.asarray(c, dtype=np.complex128) for c in coords)
        return self._poly(cs) * np.exp(self.beta * self._gram_form(cs))

    def value(self, lam: Weight) -> complex:
        return complex(self.value_coords(*[complex(c) for c in lam.coeffs]))

    def star(self) -> "PaleyWienerGaussian":
        """The profile with conjugated coefficients: star(lam) = conj(Phi(conj lam))."""
        return PaleyWienerGaussian(
            self.datum, self.beta,
            {e: complex(c).conjugate() for e, c in self.poly_coeffs.items()})

    @classmethod
    def random(cls, datum: RootDatum,
               rng: np.random.Generator) -> "PaleyWienerGaussian":
        """beta uniform in [0.35, 0.8), times a polynomial of degree <= 2
        with coefficients uniform in the unit square."""
        beta = float(rng.uniform(0.35, 0.8))
        coeffs = {}
        r = datum.rank
        for expo in np.ndindex(*(3,) * r):
            if sum(expo) <= 2:
                coeffs[tuple(int(e) for e in expo)] = complex(
                    rng.uniform(-1, 1), rng.uniform(-1, 1))
        return cls(datum, beta, coeffs)


# The two windows of the spectral integrals, each a contour.window of
# half-width W = gaussian_width(rate).  Phi(lam) and Phi*(-w lam) each carry
# the Gaussian |exp(beta <lam, lam>)| = exp(beta (<lam0, lam0> - <t, t>))
# on lam = lam0 + it, since <w lam, w lam> = <lam, lam>, so the integrand
# m(w, lam) Phi(lam) Phi*(-w lam) decays as exp(-2 beta <t, t>), and rate
# is the least 2 beta <t, t> / W^2 on the window's edge.

# The step of the plane rule.  On lam0 + i R^r each pole plane z_k = 1 lies
# d_k = lam0_k - 1 >= 0.05 off the t-plane, and its simple pole adds the
# exact term pole_factor(d_k, step) Line_k to the trapezoid sum, which
# _plane_rule subtracts.  Past those planes the nearest singularity
# of the shifted integrand is the plane z_1 + z_2 = 1, lam0_1 + lam0_2 - 1
# >= 1.1 off (that of ratio_L(z_1 + z_2), on GL(3) alone); on A's
# imaginary plane the poles z_k = 1 and z_1 + z_2 = 1 lie at distance 1.
# The zeros 1/2 + i gamma of L(1 + s) give ratio_L(z) poles at z = -1/2 +
# i gamma, 1/2 off the imaginary plane, but only where the Gaussian has cut
# the integrand below exp(-69) of scale: |t_k| or |t_1 + t_2| >= gamma_1 =
# 14.13 gives 2 beta <t, t> >= beta gamma_1^2 = 69.9 at the smallest beta,
# 0.35.  So d = 1 on both, and the step is line_step(1.0) = 0.171.
_PLANE_STEP = line_step(1.0)


def _plane_window(beta: float) -> tuple[np.ndarray, float]:
    """The GL(2) line and the GL(3) planes.  On GL(2) <t, t> = t^2/2; on
    GL(3) the least <t, t> = (t_1^2 + t_1 t_2 + t_2^2) 2/3 on the edge of
    the square max |t_k| = W is W^2/2, at t = (W, -W/2).  So the rate is
    beta on both.  The step is _PLANE_STEP: the plane rule is corrected
    for the pole planes z_k = 1, and A has no pole nearer than 1."""
    return window(gaussian_width(beta), _PLANE_STEP)


# The step of the singular lines comes from the distance d of the nearest
# singularity of their integrands to the real t-axis: _LINE_STEP is
# contour.line_step(d), the largest step with exp(-2 pi d / step) <= 2^-53.
# ratio_L(s) = L(s)/L(1 + s) has its pole at s = 1, and its other poles at
# the zeros 1/2 + i gamma of L(1 + s).  On B's kernel n_ij(it), and on the
# kappa_B pickup's residue lines, every argument is +-it +- 1/2 (n_matrix;
# on the pickup, the roots other than beta_i at lam = delta_i + it e_i):
# the pole at 1 sits at |Im t| >= 1/2.  A zero of L(1 + s) comes to the
# t-axis only at |t| = gamma >= gamma_1 = 14.1347, beyond the widest line
# window (9.7, at beta = 0.35), where the Gaussian factor has cut the
# integrand below exp(-90) of scale.  So d = 0.5, and the step is
# line_step(0.5) = 0.0856.
_LINE_STEP = line_step(0.5)


def _line_window(beta: float) -> tuple[np.ndarray, float]:
    """The singular lines of B, and of kappa_B on its half steps.  On lam =
    delta_i + it e_i, <t e_i, t e_i> = 2 t^2 / 3, so the rate is 4 beta / 3."""
    return window(gaussian_width(4.0 * beta / 3.0), _LINE_STEP)


# ------------------------------------------------------ shifted integrand --


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _monomials(rank: int, size: int) -> Mapping[tuple[int, ...], int]:
    """The exponent tuples of total degree < size in rank coordinates, each
    with its row in the tables of _tables."""
    return MappingProxyType({e: k for k, e in enumerate(
        e for e in itertools.product(range(size), repeat=rank)
        if sum(e) < size)})


@functools.cache
def _gram(datum: RootDatum) -> tuple[tuple[float, ...], ...]:
    """<w_i, w_j> in floats, once per root datum (gram_fw rebuilds it in
    exact arithmetic on every access)."""
    return tuple(tuple(float(g) for g in row) for row in datum.gram_fw)


@functools.cache
def _gram_coefficients(datum: RootDatum, size: int) -> np.ndarray:
    """<lam, lam> = sum_ij <w_i, w_j> lam_i lam_j as coefficients on the
    monomials of _monomials(rank, size)."""
    index = _monomials(datum.rank, size)
    coeffs = np.zeros(len(index), dtype=np.complex128)
    for i, row in enumerate(_gram(datum)):
        for j, g in enumerate(row):
            coeffs[index[tuple((k == i) + (k == j)
                               for k in range(datum.rank))]] += g
    return _read_only(coeffs)


def _coefficients(poly_coeffs: Mapping, index: Mapping) -> np.ndarray:
    """A profile's coefficients on the monomials of index; an exponent
    tuple shorter than the rank leaves the remaining coordinates at power
    0."""
    rank = len(next(iter(index)))
    coeffs = np.zeros(len(index), dtype=np.complex128)
    for expo, c in poly_coeffs.items():
        coeffs[index[tuple(expo) + (0,) * (rank - len(expo))]] += c
    return coeffs


def _tables(lines: tuple, size: int) -> np.ndarray:
    """The (monomials, size * size) table T with prod_k (a_k + b_k x + c_k
    y)^(e_k) = sum_pq T[e, size p + q] x^p y^q for each monomial e of
    _monomials(len(lines), size), lines[k] = (a_k, b_k, c_k)."""
    index = _monomials(len(lines), size)
    tables = np.zeros((len(index), size, size), dtype=np.complex128)
    for expo, row in index.items():
        poly = tables[row]
        poly[0, 0] = 1.0
        for (a, b, c), e in zip(lines, expo):
            for _ in range(e):
                product = a * poly
                product[1:, :] += b * poly[:-1, :]
                product[:, 1:] += c * poly[:, :-1]
                poly[...] = product
    return _read_only(tables.reshape(len(index), size * size))


def _frame_lines(frame: tuple, w) -> tuple[tuple[complex, ...], ...]:
    """lines[k] = (a_k, b_k, c_k) of mu_k = a_k + b_k x + c_k y, for mu =
    lam (w None) or mu = -w lam on lam = base + x x_dir + y y_dir, frame
    = (base, x_dir, y_dir): the exact coordinates of the frame's weights,
    or their images under w.act_coords."""
    coords = [d.coeffs for d in frame]
    if w is not None:
        coords = [w.act_coords(*(-c for c in cs)) for cs in coords]
    return tuple(zip(*(map(complex, c) for c in coords)))


# Keyed by exact values, the frame's weights; bounded only for a long run
# over many drawn base points, since one spectral op uses about a dozen
# frames.
@functools.lru_cache(maxsize=1024)
def _frame_tables(frame: tuple, size: int) -> Mapping:
    """The profile-free algebra of a frame: (lines, tables) of lam under
    the key None and of -w lam under w.perm, for every w of the Weyl
    group (_frame_lines, _tables)."""
    weyl = frame[0].datum.weyl_group()
    return MappingProxyType({
        None if w is None else w.perm: (lines, _tables(lines, size))
        for w in (None, *weyl) for lines in [_frame_lines(frame, w)]})


def _affine_poly(coeffs: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The (size, size) matrix P with sum_pq P[p, q] x^p y^q the polynomial
    of monomial coefficients coeffs on the lines of tables (_tables): a
    sum of at most |coeffs| tables.  coeffs may stack several polynomials
    along a leading axis."""
    size = math.isqrt(tables.shape[-1])
    return (coeffs @ tables).reshape(*np.shape(coeffs)[:-1], size, size)


def _on_grid(poly: np.ndarray, vx: np.ndarray, vy: np.ndarray | None):
    """sum_pq poly[p, q] x^p y^q on the grid of the Vandermonde matrices
    vx[k, p] = x_k^p and vy[l, q] = y_l^q; without vy, at y = 0."""
    return vx @ poly[:, 0] if vy is None else vx @ poly @ vy.T


def _shifted_integrand(phi: PaleyWienerGaussian, ws,
                       base: Weight | list[Weight],
                       x_dir: Weight | list[Weight], x,
                       y_dir: Weight | list[Weight] | None, y):
    """Yield (m(w, lam), Phi(lam), Phi*(-w lam)) for each w in ws, on the
    grid lam = base + x_k x_dir (+ y_l y_dir, unless y is None) of
    m_on_grid; base, x_dir and y_dir may be lists of one frame per w, and
    w a pair (w, dropped) whose m leaves out the factors of dropped, as
    there.

    The one evaluator of the shifted integrand: every contour integral of
    this module sums m(w, lam) Phi(lam) conj(Phi(-w conj lam)) over it.
    Both profiles are built at matmul cost.  lam and -w lam are affine in
    (x, y), with coefficients the exact coordinates of base, x_dir, y_dir
    and their images under -w (_frame_lines), so Q(lam), Q*(-w lam) and
    <lam, lam> are polynomials in (x, y) of degree <= max(deg Q, 2): their
    values are vx P vy^T, P a sum of the monomial tables of their lines
    weighted by the coefficients (_tables, _affine_poly, _on_grid).  Lines
    and tables are cached, so a frame seen before costs no Weyl action and
    no expansion.  The Gaussian exp(beta <lam, lam>) is formed once per
    distinct frame, since <-w lam, -w lam> = <lam, lam> for every w, and
    so is Phi(lam).  Without y, y_dir is zero.  With y, a frame whose x_dir
    (or y_dir) is zero takes the one-row Vandermonde matrix of the node 0
    in x (or y), so that its profiles are (1, y.size) (or (x.size, 1)), as
    m_on_grid's m is there.  Phi*(-w lam) is built before m_on_grid forms
    m(w, lam): built after, its temporaries would sit next to m and raise
    the peak memory by one grid-sized array.
    """
    r = phi.datum.rank
    frames = list(zip(*(
        d if isinstance(d, list) else [d] * len(ws)
        for d in (base, x_dir,
                  phi.datum.weight((0,) * r) if y is None else y_dir))))
    elements = [w[0] if isinstance(w, tuple) else w for w in ws]
    size = max([2, *(sum(e) for e in phi.poly_coeffs)]) + 1
    index = _monomials(r, size)
    coeffs = np.stack((_gram_coefficients(phi.datum, size),
                       _coefficients(phi.poly_coeffs, index)))
    q_star = _coefficients(phi.star().poly_coeffs, index)
    vx = np.vander(np.asarray(x, dtype=np.complex128), size, increasing=True)
    vy = (None if y is None else
          np.vander(np.asarray(y, dtype=np.complex128), size, increasing=True))
    node_0 = np.eye(1, size)
    slots = {}
    order = [slots.setdefault(frame, len(slots)) for frame in frames]
    profiles = []
    for frame in slots:
        tables = _frame_tables(frame, size)
        grid = (vx if any(frame[1].coeffs) else node_0,
                vy if vy is None or any(frame[2].coeffs) else node_0)
        gram, poly = _affine_poly(coeffs, tables[None][1])
        gauss = np.exp(phi.beta * _on_grid(gram, *grid))
        phi_vals = _on_grid(poly, *grid)
        phi_vals *= gauss
        profiles.append((tables, grid, gauss, phi_vals))
    ms = m_on_grid(ws, base, x_dir, x, y_dir, y)
    for w, slot in zip(elements, order):
        tables, grid, gauss, phi_vals = profiles[slot]
        image = _on_grid(_affine_poly(q_star, tables[w.perm][1]), *grid)
        image *= gauss
        yield next(ms), phi_vals, image


# ------------------------------------------- shifted integral, A and C --


def _plane_terms(phi: PaleyWienerGaussian, lam0: tuple, residues: list):
    """(weight, terms): terms yields the shifted integrand (m(w, lam),
    Phi(lam), Phi*(-w lam)) of each w in phi.datum.weyl_group() on lam =
    lam0 + i R^r, r the rank (1 or 2), on the plane window in each
    coordinate; its sum times weight = (step/2pi)^r is the term of w.

    After them, terms yields the same triple for each (w, dropped) of
    residues, with the factors of dropped, simple roots (k, k + 1), left
    out of m, where their planes z_k = 1 meet the plane's nodes: lam0 with
    each such z_k set to 1, plus i t along the other fundamental weights,
    a line on GL(3) or the point rho.  They ride the plane's one
    _shifted_integrand call, their frames with a zero direction along each
    fixed z_k, so that m_on_grid evaluates their ratio_L arguments with
    the plane's, on one row, one column or one entry of its shape."""
    datum = phi.datum
    if datum.rank > 2:
        raise DomainError("the shifted integral needs GL(2) or GL(3)")
    t, step = _plane_window(phi.beta)
    it = 1j * t
    scale = (step / (2.0 * np.pi)) ** datum.rank
    weyl = datum.weyl_group()
    dirs = [datum.fundamental_weight(k) for k in range(1, datum.rank + 1)]
    zero = datum.weight((0,) * datum.rank)
    frames = []
    for dropped in [()] * len(weyl) + [d for _, d in residues]:
        fixed = {root[0] - 1 for root in dropped}
        frames.append((datum.weight(tuple(1.0 if k in fixed else c
                                          for k, c in enumerate(lam0))),
                       *(zero if k in fixed else d
                         for k, d in enumerate(dirs))))
    base, x_dir, *y_dir = (list(d) for d in zip(*frames))
    y_dir, y = (y_dir[0], it) if y_dir else (None, None)
    return scale, _shifted_integrand(phi, [*weyl, *residues], base, x_dir,
                                     it, y_dir, y)


@functools.cache
def _ratio_residue(datum: RootDatum) -> complex:
    """R1 = Res_{s=1} ratio_L on _RESIDUE_CIRCLE: m(s_1, lam) = ratio_L(z_1)
    on lam = (1 + u) w_1.  Computed once per root datum."""
    s1, w1 = datum.simple_reflection(1), datum.fundamental_weight(1)
    return complex(circle_residue(lambda u: next(m_on_grid([s1], w1, w1, u)),
                                  _RESIDUE_CIRCLE))


def _residues(r1: complex, terms, triples):
    """r1^len(dropped) m(w, lam) Phi(lam) Phi*(-w lam) for each (w, dropped)
    of terms, from the triples of _shifted_integrand (see _residue_line)."""
    for (_, dropped), (m, phi_vals, image) in zip(terms, triples):
        yield r1 ** len(dropped) * m * phi_vals * image


def _residue_line(phi: PaleyWienerGaussian, r1: complex, terms, base,
                  x_dir, x, y_dir, y) -> np.ndarray:
    """r1^len(dropped) m(w, lam) Phi(lam) Phi*(-w lam), stacked over the
    (w, dropped) of terms, with the ratio_L factors of the roots in dropped
    left out of m, on the grid of _shifted_integrand (base, x_dir and
    y_dir may be lists of one frame per term); r1 is R1 = Res_{s=1}
    ratio_L (_ratio_residue) wherever a root is dropped.

    The one evaluator of residues of the shifted integrand, with _residues
    its factor r1^len(dropped).  The pole of m(w, .) across <lam,
    root_check> = 1 is that of its one factor ratio_L(<lam, root_check>),
    so on that plane a term with dropped = (root,) is the residue of its
    integrand across it, and with two roots the double residue where both
    planes meet.  Its readers are the kappa_B pickup and, with nothing
    dropped, the kappa_C circle, which takes the residue at rho by
    quadrature instead; the plane's pole correction (_plane_rule) rides
    the plane's call through _plane_terms and takes its factor from
    _residues.
    """
    return np.stack(list(_residues(r1, terms, _shifted_integrand(
        phi, terms, base, x_dir, x, y_dir, y))))


def _plane_rule(phi: PaleyWienerGaussian, lam0: tuple) -> tuple[complex,
                                                                complex]:
    """(raw, correction): the plane rule of _plane_terms on lam0 + i R^r,
    and what the pole planes z_k = 1 add to it: on GL(3),

        e_1 Line_1 + e_2 Line_2 - e_1 e_2 RR,
        e_k = pole_factor(lam0_k - 1, step),

    with Line_k the residue across z_k = 1, summed on the plane's nodes of
    the other coordinate, and RR the double residue at rho, which only the
    longest element carries; on GL(2) the line is the point rho, and the
    correction is C e_1.  The t_1 rule adds e_1 Line_1 to the t_2 rule of
    the t_1 integral, and that t_2 rule adds e_2 times the integral of
    line 2, which is the summed Line_2 less e_1 RR: so the corner enters
    with the opposite sign.  A term enters when its factor exceeds 2^-53.
    The lines and the corner ride the plane's own pass (_plane_terms)."""
    datum, rank = phi.datum, phi.datum.rank
    weyl = datum.weyl_group()
    step = _plane_window(phi.beta)[1]
    factors = [pole_factor(c - 1.0, step) for c in lam0]
    simple = [(k, k + 1) for k in range(1, rank + 1)]
    # the lines z_k = 1 of GL(3), then rho, where every pole plane meets
    planes = [d for d in [*((r,) for r in simple if rank == 2), tuple(simple)]
              if math.prod(factors[r[0] - 1] for r in d) > 2.0 ** -53]
    residues = [(w, dropped) for dropped in planes for w in weyl
                if w.inversions().issuperset(dropped)]
    scale, terms = _plane_terms(phi, lam0, residues)
    raw = sum(complex(np.sum(m * phi_vals * image)) * scale
              for m, phi_vals, image in itertools.islice(terms, len(weyl)))
    vals = [v.ravel() for v in _residues(_ratio_residue(datum), residues,
                                         terms)]
    lines = [factors[d[0][0] - 1] for _, d in residues if len(d) < rank]
    correction = 0.0 + 0.0j
    if vals[len(lines):]:
        correction += ((-1) ** (rank + 1) * math.prod(factors)
                       * np.sum(np.stack(vals[len(lines):])))
    if lines:
        correction += (np.sum(np.array(lines) @ np.stack(vals[:len(lines)]))
                       * step / (2.0 * np.pi))
    return raw, complex(correction)


def _shifted_norm(phi: PaleyWienerGaussian, lam0: tuple) -> complex:
    """The shifted integral over lam0 + i R^r: the plane rule less its pole
    correction (_plane_rule).  Every coordinate of lam0 must be >= 1.05:
    beyond rho, and at least 0.05 from its pole plane z_k = 1 (on GL(3)
    the plane z_1 + z_2 = 1 is then farther still)."""
    if not all(1.05 <= c < math.inf for c in lam0):
        raise DomainError(f"contour base {lam0} needs every coordinate >= "
                          "1.05: beyond rho, 0.05 from its pole plane")
    raw, correction = _plane_rule(phi, lam0)
    return raw - correction


def shifted_norm_gl2(phi: PaleyWienerGaussian, sigma0: float) -> complex:
    """Shifted scalar-product integral on the line Re = sigma0 >= 1.05."""
    if phi.datum.n != 2:
        raise DomainError("shifted_norm_gl2 needs a GL(2) profile")
    return _shifted_norm(phi, (float(sigma0),))


def decomposed_norm_gl2(phi: PaleyWienerGaussian) -> tuple[complex, complex]:
    """(A, C) of the GL(2) decomposition shifted = A + C: the axis term
    and the residue term |Phi(rho)|^2 / L(2)."""
    if phi.datum.n != 2:
        raise DomainError("decomposed_norm_gl2 needs a GL(2) profile")
    return contribution_A(phi)[0], contribution_C(phi)


def shifted_norm_gl3(phi: PaleyWienerGaussian,
                     lam0: tuple[float, float]) -> complex:
    """Six-term shifted integral over lam0 + i R^2 in coroot coordinates."""
    if phi.datum.n != 3:
        raise DomainError("shifted_norm_gl3 needs a GL(3) profile")
    return _shifted_norm(phi, tuple(float(c) for c in lam0))


def contribution_A(phi: PaleyWienerGaussian) -> tuple[complex, complex]:
    """Continuous contribution on i R^r, both ways: (direct W-sum,
    (1/|W|) |F|^2 form)."""
    scale, terms = _plane_terms(phi, (0.0,) * phi.datum.rank, [])
    direct = 0.0 + 0.0j
    f_sum = 0.0
    # Phi(w lam) = conj Phi*(-w lam) on the imaginary plane
    for m, phi_vals, image in terms:
        direct += np.sum(m * phi_vals * image)
        f_sum += np.conj(image) / m
    symmetric = np.sum(f_sum * np.conj(f_sum)) / len(phi.datum.weyl_group())
    return complex(direct) * scale, complex(symmetric) * scale


def contribution_B(phi: PaleyWienerGaussian) -> tuple[complex, complex]:
    """Line contribution, both ways: (direct nine-term sum, rank-one factor).

    direct   = (1/L(2)) sum_ij int n_ij(z) Phi_i conj(Phi_j) (1/2pi)|dz|
    factored = (1/L(2)) int |sum_i n_i1(z) Phi_i(z)|^2 (1/2pi)|dz|
    """
    t, step = _line_window(phi.beta)
    n = n_matrix(1j * t)
    vals = np.array([phi.value_coords(*lambda_line(i, 1j * t).coeffs)
                     for i in (1, 2, 3)])
    L2 = complex(completed_L(2.0))
    direct = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            direct += np.sum(n[i, j] * vals[i] * np.conj(vals[j]))
    fac_sum = (n[:, 0, :] * vals).sum(axis=0)
    factored = np.sum(fac_sum * np.conj(fac_sum))
    scale = step / (2.0 * np.pi * L2)
    return complex(direct) * scale, complex(factored) * scale


def contribution_C(phi: PaleyWienerGaussian) -> complex:
    """Point contribution |Phi(rho)|^2 / vol: over L(2) on GL(2), over
    L(2) L(3) on GL(3)."""
    v = phi.value(phi.datum.rho())
    return v * v.conjugate() / volume_constant(phi.datum)


def measure_constants(phi: PaleyWienerGaussian, b_direct: complex,
                      c: complex) -> tuple[float, float]:
    """Per-run numerical derivation of (kappa_B, kappa_C).

    kappa_B: ratio of the line pickup to b_direct, the kernel-form B of
    contribution_B.  The pickup integrates along each line i the residues
    sum_j of m(sigma_ij, lam) Phi(lam) Phi*(-sigma_ij lam) across it, from
    the nine (sigma_ij, line i) residue lines of _residue_line: the root
    beta_i with <delta_i, beta_check_i> = 1 dropped, on lam = delta_i +
    it e_i, times R1 = Res_{s=1} ratio_L from its own circle.  Its line
    nodes are the half steps t = h (k + 1/2) of B's window, so that the
    trapezoid errors of the two do not cancel in the ratio: kappa_B sees
    the line step.  kappa_C: iterated double-circle residue of the
    longest-element term at rho on gl3.DOUBLE_CIRCLES, divided by c, the
    closed-form C of contribution_C.  Both are 1 up to quadrature error,
    independently of the test profile.
    """
    if abs(b_direct) < 1e-12:
        raise DomainError(
            "measure_constants needs a profile that does not vanish on the "
            "singular lines (B is numerically zero)")
    t, step = _line_window(phi.beta)
    n = t.size // 2
    # half steps symmetric in t, so that conjugate pairs meet in one call
    x = 1j * (step * (np.arange(-n, n) + 0.5))
    lines = [i for i in (1, 2, 3) for _ in (1, 2, 3)]
    terms = [(sigma(i, j), (line_root(i),)) for i in (1, 2, 3)
             for j in (1, 2, 3)]
    pickup = np.sum(_residue_line(
        phi, _ratio_residue(GL3), terms,
        [delta_weight(i) for i in lines], [line_direction(i) for i in lines],
        x, None, None))
    kappa_b = (pickup * step / (2.0 * np.pi) / b_direct).real

    # inner circle in z1 around 1, outer circle in z2 around 1; nothing is
    # dropped, so R1 does not enter
    rho_term = circle_residue(lambda u_out, u_in: _residue_line(
        phi, 1.0, [(named_weyl()["s3"], ())], GL3.rho(),
        GL3.fundamental_weight(2), u_out, GL3.fundamental_weight(1), u_in),
        *DOUBLE_CIRCLES)
    kappa_c = (complex(rho_term[0]) / c).real
    return float(kappa_b), float(kappa_c)


@dataclass
class SpectralReport:
    """What the GL(3) Parseval check compares: the shifted integral at each
    base, both forms of A and of B, the measured constants, and the relative
    residual of shifted = A + B + C."""

    shifted: complex
    shifted_alt: complex
    A_direct: complex
    A_symmetric: complex
    B_direct: complex
    B_factored: complex
    kappa_B: float
    kappa_C: float
    residual_rel: float


def parseval_check_gl3(phi: PaleyWienerGaussian, lam0: tuple[float, float],
                       lam0_alt: tuple[float, float]) -> SpectralReport:
    """Assemble shifted = A + B + C, with the measure constants kappa_B =
    kappa_C = 1 of the module docstring, and report residuals.  lam0_alt is
    a second base point of the shifted integral, and both constants are
    measured numerically (measure_constants) into kappa_B and kappa_C."""
    shifted = shifted_norm_gl3(phi, lam0)
    shifted_alt = shifted_norm_gl3(phi, lam0_alt)
    a_direct, a_sym = contribution_A(phi)
    b_direct, b_fact = contribution_B(phi)
    c_val = contribution_C(phi)
    kappa_b, kappa_c = measure_constants(phi, b_direct, c_val)
    assembled = a_direct + b_direct + c_val
    residual = abs(shifted - assembled)
    return SpectralReport(
        shifted=shifted,
        shifted_alt=shifted_alt,
        A_direct=a_direct,
        A_symmetric=a_sym,
        B_direct=b_direct,
        B_factored=b_fact,
        kappa_B=kappa_b,
        kappa_C=kappa_c,
        residual_rel=residual / max(abs(shifted), 1e-300),
    )
