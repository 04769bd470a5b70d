"""GL(3) residue data: singular lines, the rank-one matrix N(z), and volumes.

For GL(3) the K-invariant intertwining scalars m(w, lam) are singular along
the three affine lines

    Line_i = { lam : <lam, beta_check_i> = 1 },   beta_check = (a1, a2, rho),

parameterized as lam_i(z) = delta_i + z e_i with delta_i half the i-th
positive root and e_i orthogonal to delta_i:

    e_1 = -w_2,   e_2 = w_1,   e_3 = w_2 - w_1.

For each target j there is a unique Weyl element sigma_ij with
sigma_ij(delta_i) = -delta_j, and the transverse residue of m(sigma_ij, .)
along Line_i equals n_ij(z) / L(2).  The 3x3 matrix N(z) = (n_ij(z)) has
closed-form entries in completed-zeta ratios; it is rank one, satisfies
n_ij(z) = n_ji(-z), and on the imaginary axis the Hermitian multiplicativity
n_ij = n_ik conj(n_jk) for k = 1, 2.

Closed forms are the oracles; contour quadrature (transverse circles for the
line residues, iterated circles for the five double residues) is the
independent route to every number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .contour import circle_residue, trapezoid_circle
from .errors import DomainError
from .intertwine import m_on_grid
from .roots import RootDatum, Weight, WeylElement
from .zeta import completed_L, ratio_L

__all__ = [
    "GL3",
    "sigma",
    "delta_weight",
    "line_direction",
    "lambda_line",
    "n_entry",
    "n_matrix",
    "rank_one_residual",
    "max_minor",
    "symmetry_residual",
    "multiplicativity_residual",
    "named_weyl",
    "TRANSVERSE_CIRCLE",
    "DOUBLE_CIRCLES",
    "transverse_residue",
    "double_residue_table",
    "double_residue_closed_forms",
    "volume_factors",
    "volume_constant",
]

GL3 = RootDatum(3)

_HALF = Fraction(1, 2)


# The (radius, nodes) circles of circle_residue.  TRANSVERSE_CIRCLE is the
# u-circle of transverse_residue, at lam_i(z) + u delta_i.  The root beta_i
# gives ratio_L(1 + u): the pole at u = 0 is the residue, and its next
# singularity is past |u| = 14.  The other roots have argument
# a0 (1 + u) +- z with a0 = +-1/2.  The pole of L at 1 and the removable
# point 0 put theirs at |u| = |2z -+ 1| or |2z -+ 3|, and a zero
# 1/2 + i gamma of L(1 + s) at |u| >= 2 (|gamma| - |Im z|), which the
# first zero, gamma_1 = 14.1347, keeps >= 1 for |Im z| <= 13.6.  So the
# clearance is 1 on the domain |2z -+ 1|, |2z -+ 3| >= 1, |Im z| <= 13.6,
# which transverse_residue enforces; the imaginary axis up to |Im z| = 13.6
# lies inside it.  DOUBLE_CIRCLES, outer then inner, are the iterated
# circles of the double residues and of kappa_C.  After the inner
# residue, the next pole of the outer variable lies on a plane at distance
# 1.  The inner radius is kept strictly below the outer one so that the
# inner circle encloses only the hyperplane through the centre, never a
# pole that moves with the outer variable: on the w1 and w2 rows the plane
# z1 + z2 = 1 passes at |u_in| = |u_out| = 0.3, the inner clearance.
TRANSVERSE_CIRCLE = trapezoid_circle(0.1, 1.0)
DOUBLE_CIRCLES = (trapezoid_circle(0.3, 1.0), trapezoid_circle(0.1, 0.3))


@lru_cache(maxsize=None)
def delta_weight(i: int) -> Weight:
    """delta_i = alpha_i / 2 (alpha_3 the highest root), exact coordinates."""
    coords = {1: (Fraction(1), -_HALF), 2: (-_HALF, Fraction(1)),
              3: (_HALF, _HALF)}
    return GL3.weight(coords[i])


@lru_cache(maxsize=None)
def line_direction(i: int) -> Weight:
    """e_i, the direction of Line_i; orthogonal to delta_i."""
    coords = {1: (0, -1), 2: (1, 0), 3: (-1, 1)}
    return GL3.weight(coords[i])


@lru_cache(maxsize=None)
def sigma(i: int, j: int) -> WeylElement:
    """The unique Weyl element with sigma_ij(delta_i) = -delta_j."""
    target = tuple(-c for c in delta_weight(j).coeffs)
    hits = [w for w in GL3.weyl_group() if w.act(delta_weight(i)).coeffs == target]
    if len(hits) != 1:
        raise RuntimeError(f"sigma({i},{j}) not unique: {hits}")
    return hits[0]


def lambda_line(i: int, z) -> Weight:
    """The point delta_i + z e_i on the i-th singular line; an array z
    gives the cloud of those points."""
    d, e = delta_weight(i), line_direction(i)
    z = np.asarray(z, dtype=np.complex128)
    return GL3.weight(tuple(complex(a) + z * complex(b)
                            for a, b in zip(d.coeffs, e.coeffs)))


def n_matrix(z) -> np.ndarray:
    """The residue matrix N(z) = (n_ij(z)), of shape (3, 3) + z.shape.

    Every entry is a product of r = ratio_L at the four points +-z +- 1/2,
    evaluated in one call: n_13 = n_32 = r(-z + 1/2), n_23 = n_31 =
    r(z + 1/2), n_12 = r(-z - 1/2) r(-z + 1/2), n_21 = r(z - 1/2) r(z + 1/2)
    and n_33 = n_31 n_32; the diagonal entries n_11 = n_22 = 1 are exact.
    The off-diagonal entries collapse this far because 1 + <lam_i, a_check>
    and <lam_i, rho_check> coincide along the first two lines.  When
    z[::-1] == -z exactly, the rows at -z -+ 1/2 are those at z -+ 1/2
    reversed (m_on_grid's mirror rule), so the call takes the two rows at
    z -+ 1/2 alone, and the values are bit for bit the four rows'.  Raises
    PoleProximity at the poles z = +-1/2, +-3/2.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim and np.array_equal(z[::-1], -z):
        r_pm, r_pp = ratio_L(np.stack((z - 0.5, z + 0.5)))
        r_mm, r_mp = r_pm[::-1], r_pp[::-1]
    else:
        r_mm, r_mp, r_pm, r_pp = ratio_L(
            np.stack((-z - 0.5, -z + 0.5, z - 0.5, z + 0.5)))
    n = np.empty((3, 3) + z.shape, dtype=np.complex128)
    n[0, 0] = n[1, 1] = 1.0
    n[0, 2] = n[2, 1] = r_mp
    n[1, 2] = n[2, 0] = r_pp
    n[0, 1] = r_mm * r_mp
    n[1, 0] = r_pm * r_pp
    n[2, 2] = n[2, 0] * n[2, 1]
    return n


def n_entry(i: int, j: int, z) -> complex:
    """Closed-form entry n_ij(z) of the residue matrix N(z), i, j in 1..3."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"n_entry indices out of range: ({i}, {j})")
    return complex(n_matrix(complex(z))[i - 1, j - 1])


def rank_one_residual(z) -> float:
    """Max modulus of the nine 2x2 minors of N(z), over z (a point or an
    array)."""
    return max_minor(n_matrix(z))


def max_minor(m: np.ndarray) -> float:
    """Max modulus of the nine 2x2 minors of a 3x3 matrix, or of a stack
    of shape (3, 3) + shape."""
    pairs = ((0, 1), (0, 2), (1, 2))
    minors = np.stack([m[r1, c1] * m[r2, c2] - m[r1, c2] * m[r2, c1]
                       for r1, r2 in pairs for c1, c2 in pairs])
    # np.hypot, unlike np.abs, agrees with abs() of one complex bit for bit
    return float(np.max(np.hypot(minors.real, minors.imag)))


def symmetry_residual(z) -> float:
    """Max |n_ij(z) - n_ji(-z)|, over z (a point or an array).

    N(-z) comes from root data, not from n_matrix's table: n_ji(-z) is the
    product of ratio_L(<lam_j(-z), a_check>) over the inversions a of
    sigma_ji other than beta_j, the root with <delta_j, beta_check_j> = 1
    whose factor carries the 1/L(2) of the transverse residue.  All the
    factors come from one stacked ratio_L call.
    """
    z = np.asarray(z, dtype=np.complex128)
    factors = [(i, j, root) for i in range(3) for j in range(3)
               for root in sorted(sigma(j + 1, i + 1).inversions())
               if delta_weight(j + 1).pair_root(root) != 1]
    vals = ratio_L(np.stack([lambda_line(j + 1, -z).pair_root(root)
                             for _, j, root in factors]))
    n_t = np.ones((3, 3) + z.shape, dtype=np.complex128)
    for (i, j, _), v in zip(factors, vals):
        n_t[i, j] *= v
    return float(np.max(np.abs(n_matrix(z) - n_t)))


def multiplicativity_residual(z) -> float:
    """Max |n_ij(z) - n_ik(z) conj(n_jk(z))| over i, j, k in {1, 2} and z
    (a point or an array).

    Requires purely imaginary z (the identity is Hermitian in nature).
    """
    z = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(z.real) > 1e-12):
        raise ValueError("multiplicativity_residual needs purely imaginary z")
    m = n_matrix(z)
    return float(max(np.max(np.abs(m - m[:, None, k] * np.conj(m[None, :, k])))
                     for k in (0, 1)))


def transverse_residue(i: int, j: int, z):
    """Residue of m(sigma_ij, .) across Line_i at lam_i(z), by quadrature.

    Integrates m(sigma_ij, lam_i(z) + u delta_i) around TRANSVERSE_CIRCLE,
    on m_on_grid's z (+) u grid, which for a point z is one stacked
    ratio_L call over the circle; the normalization <delta_i, beta_check_i>
    = 1, with delta_i orthogonal to e_i, makes the value equal n_ij(z)/L(2)
    independently of the remaining gauge freedom.  A point z gives a
    complex, an array z an array of its shape.  Raises DomainError outside
    the domain |2z -+ 1|, |2z -+ 3| >= 1, |Im z| <= 13.6 on which the
    circle's clearance is 1.
    """
    zs = np.asarray(z, dtype=np.complex128)
    flat = zs.ravel()
    outside = (np.min(np.abs(2.0 * flat[:, None] - (-3.0, -1.0, 1.0, 3.0)),
                      axis=1) < 1.0) | (np.abs(flat.imag) > 13.6)
    if np.any(outside):
        raise DomainError(f"transverse_residue: z = {flat[outside][0]} is "
                          "outside |2z -+ 1|, |2z -+ 3| >= 1, |Im z| <= 13.6")
    res = circle_residue(lambda u: next(m_on_grid(
        [sigma(i, j)], delta_weight(i), line_direction(i), flat,
        delta_weight(i), u)), TRANSVERSE_CIRCLE)
    # res has shape (1,) when every root of sigma_ij depends on u alone
    vals = np.broadcast_to(res, zs.size)
    return complex(vals[0]) if zs.ndim == 0 else vals.reshape(zs.shape)


# Double-residue targets: (weyl element name, point, inner axis).  The inner
# residue is taken across the hyperplane z_inner = 1 through the point, and
# the outer circle is centred on the point's other coordinate.
_DOUBLE_RESIDUE_PLAN = (
    ("r1", (0.0, 1.0), 2),
    ("r2", (1.0, 0.0), 1),
    ("s3", (0.0, 1.0), 2),
    ("s3", (1.0, 0.0), 1),
    ("s3", (1.0, 1.0), 1),
)


@lru_cache(maxsize=None)
def named_weyl() -> dict[str, WeylElement]:
    """The six elements of W(GL(3)) by name: e, s1, s2, r1 = s1 s2,
    r2 = s2 s1 and the longest element s3 = s1 s2 s1."""
    s1 = GL3.simple_reflection(1)
    s2 = GL3.simple_reflection(2)
    return {"e": GL3.identity(), "s1": s1, "s2": s2,
            "r1": s1 * s2, "r2": s2 * s1, "s3": s1 * s2 * s1}


def double_residue_closed_forms() -> list[complex]:
    """Closed-form values for the five double residues, from L(2), L(3)."""
    L2 = complex(completed_L(2.0))
    L3 = complex(completed_L(3.0))
    return [1.0 / L2 ** 2, 1.0 / L2 ** 2, -1.0 / L2 ** 2, -1.0 / L2 ** 2,
            1.0 / (L2 * L3)]


def double_residue_table() -> list[tuple[WeylElement, Weight, complex]]:
    """The five double residues of the m-scalars, by iterated quadrature.

    Returns (weyl element, point, value) in the order
    (r1, w2), (r2, w1), (s3, w2), (s3, w1), (s3, rho).
    """
    out = []
    for name, point, inner in _DOUBLE_RESIDUE_PLAN:
        w, base = named_weyl()[name], GL3.weight(point)
        val = circle_residue(lambda u_out, u_in: next(m_on_grid(
            [w], base, GL3.fundamental_weight(3 - inner), u_out,
            GL3.fundamental_weight(inner), u_in)), *DOUBLE_CIRCLES)
        out.append((w, base, complex(val)))
    return out


def volume_factors(datum: RootDatum) -> list[int]:
    """Exponents of the closed-form volume: vol = prod_k L(k), k = 2..n.

    Obtained by cancelling the height products
    1/V = prod'_{alpha>0} L(ht) / prod_{alpha>0} L(1 + ht)  (primed product
    over non-simple positive roots); for type A the heights h = 1..n-1 occur
    with multiplicity n - h and the quotient telescopes to L(2)...L(n).
    """
    num: dict[int, int] = {}
    for root in datum.positive_roots():
        h = datum.root_height(root)
        num[h + 1] = num.get(h + 1, 0) + 1       # denominator of 1/V
        if h > 1:
            num[h] = num.get(h, 0) - 1           # primed numerator of 1/V
    factors = []
    for k in sorted(num):
        if num[k] < 0:
            raise RuntimeError("volume exponent cancellation failed")
        factors.extend([k] * num[k])
    return factors


def volume_constant(datum: RootDatum) -> float:
    """vol(X_G) for split GL(n) in the normalized measure: L(2)...L(n)."""
    value = 1.0
    for k in volume_factors(datum):
        value *= float(np.real(completed_L(float(k))))
    if not math.isfinite(value):
        raise DomainError(f"volume_constant: L(2)...L({datum.n}) is past "
                          "double range")
    return value

