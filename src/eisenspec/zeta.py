"""Complex evaluation of zeta, Gamma and the completed zeta function.

The completed zeta function

    L(s) = pi^(-s/2) * Gamma(s/2) * zeta(s)

is the single analytic primitive the rest of the package is built on: it is
meromorphic with simple poles at s = 0 and s = 1 (residues -1 and +1) and
satisfies L(s) = L(1 - s).

Evaluation strategy:

* L(s) by Euler-Maclaurin summation at w = s or w = 1 - s, whichever has
  Re w >= 1/2, where the partial sum does not cancel against N^(1-w)/(w-1).
  The public zeta sums directly on Re s >= -1, a route independent of L's,
  and is L(1 - s) / (pi^(-s/2) Gamma(s/2)) to the left of it.
* The Bernoulli tail of order 14 is N^(-w) (w/N) (b_1 + g_1 (b_2 + ...)),
  b_k = B_{2k}/(2k)!, g_k = (w + 2k - 1)(w + 2k)/N^2, evaluated by Estrin's
  scheme on one 16-row table of the g_k: four pairwise levels of whole-
  table numpy calls.  With Gamma's Lanczos table (below), a kernel pass is
  a fixed number of numpy calls whatever its size, which on a few points
  is the whole cost of a call.  Every step is elementwise, so a point's
  value does not depend on its batch.
* Separable grids.  The evaluators take an optional second argument and
  then work on the outer sum s_ij = a_i + b_j.  The Euler-Maclaurin partial
  sum factors there, sum_{n<N} n^(-a_i - b_j) = sum_n E_a[i, n] E_b[j, n]
  with E_x[k, n] = exp(-x_k log n), so |a| + |b| rows of exponentials and
  one contraction replace |a| |b| N exponentials (the dense, low-N
  relative of Odlyzko-Schoenhage multi-evaluation).  The contraction is a
  plain einsum, never a BLAS product: on the kappa_C grid (64 x 48 by
  48 x 34) a BLAS product is large enough to start a thread pool, whose
  threads then spin between calls and compete with the caller for CPU.
  Reflected points stay on a grid, 1 - a_i - b_j = (1 - a_i) + (-b_j); a
  grid that straddles Re 1/2 takes one contraction per side.  The
  Bernoulli tail, Gamma, pi^(-w/2), the pole guard and the Laurent fill
  stay per point, and N is chosen from max |Im s_ij| over the whole grid.
  A pointwise call is the degenerate case without b, where the
  contraction is the row sum of n^(-w).
* Gamma by a fixed Lanczos coefficient set (g = 607/128, 15 terms), with the
  reflection formula for Re(s) < 1/2.  The terms c_k / (z + k - 1) are one
  14-row table whose rows are added in order, the order of the term-by-term
  sum.
* ratio_L(z) = L(z)/L(1+z) is a first-class primitive, evaluated in one
  kernel pass: z and 1 + z are stacked into one Euler-Maclaurin call (they
  share its N, since Im(1 + z) = Im z) and one Gamma call, and the pi
  factor is one power, pi^(-w1/2) / pi^(-w2/2) = pi^((w2 - w1)/2): sqrt(pi)
  on Re z >= 1/2, pi^z on -1/2 <= Re z < 1/2 and 1/sqrt(pi) on
  Re z < -1/2.  The removable singularity at z = 0 (both L factors have
  simple poles there) is filled by its Laurent expansion, so quadrature
  paths may run straight through 0.
* Conjugate halves are evaluated once.  ratio_L is exactly conjugation
  equivariant, ratio_L(conj z) == conj ratio_L(z) bit for bit (every step
  of a pass, the Laurent fill with its real constant included, treats the
  real and imaginary parts symmetrically).  So a pointwise argument whose
  last axis is conjugation symmetric, z[..., ::-1].conj() == z exactly, as
  on a line a + it or a plane of such lines with a real base and a window
  symmetric in t, takes its upper half through the kernel and reads the
  lower half as the conjugate mirror of it.  The pole check runs on the
  whole argument first, and the largest |Im|, hence the Euler-Maclaurin
  length, is the same on the half, so every value is the unfolded one.
* Residues are trapezoid sums on circles sized by contour.trapezoid_circle;
  closed forms are reserved for test oracles.  The Laurent constant c0 of L
  at 1, which fills ratio_L at 0, is the residue of L(1 + u)/u.

All evaluators accept scalars or numpy arrays and are conjugation
equivariant: f(conj s) = conj(f(s)) to machine precision.  zeta, gamma_fn,
completed_L and ratio_L raise DomainError on a non-finite argument.  They
take no configuration: the Euler-Maclaurin length, the Bernoulli order and
the pole exclusion radius are module constants.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .contour import circle_residue, trapezoid_circle
from .errors import DomainError, PoleProximity

__all__ = [
    "POLE_EXCLUSION_RADIUS",
    "zeta",
    "gamma_fn",
    "completed_L",
    "ratio_L",
]


# Euler-Maclaurin controls: at least 48 terms of the partial sum (more for
# large |Im s|) and a Bernoulli tail of order 14.  With them L has relative
# error <= 1e-12 (3e-13 at worst against mpmath) on the validated rectangle
# Re(s) in [-6, 6], |Im(s)| <= 150, POLE_EXCLUSION_RADIUS from the poles;
# so has the public zeta, summed directly down to Re -1, on |Im(s)| <= 60.
_EM_TERMS = 48
_BERNOULLI_ORDER = 14
POLE_EXCLUSION_RADIUS = 1e-6

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LANCZOS_COEF = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])

# B_{2k}/(2k)! for k = 1..16; enough for _BERNOULLI_ORDER <= 16.
_B2K_OVER_FACT = np.array([
    8.3333333333333333e-02, -1.3888888888888889e-03, 3.3068783068783069e-05,
    -8.2671957671957672e-07, 2.0876756987868099e-08, -5.2841901386874932e-10,
    1.3382536530684679e-11, -3.3896802963225829e-13, 8.5860620562778446e-15,
    -2.1748686985580619e-16, 5.5090028283602295e-18, -1.3954464685812523e-19,
    3.5347070396294675e-21, -8.9535174270375469e-23, 2.2679524523376831e-24,
    -5.7447906688722024e-26,
])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The Lanczos terms c_k / (z + k - 1), k = 1..14, are the rows of one table.
_LANCZOS_ROWS = _read_only(_LANCZOS_COEF[1:, None].copy())
_LANCZOS_SHIFT = _read_only(np.arange(len(_LANCZOS_ROWS), dtype=np.float64))

# The Bernoulli tail's b_k = B_{2k}/(2k)!, k = 1.._BERNOULLI_ORDER, padded
# with zeros to 16, and the shifts 2k - 1/2 of its factors g_k, k = 1..16,
# both in the bit-reversed order of k - 1 (4 bits).  The pairs (k, k + 1)
# that each level of Estrin's scheme folds are then the two contiguous
# halves of a table, and the folded table is again in bit-reversed order.
_TAIL_ROWS = [int(format(k, "04b")[::-1], 2) for k in range(16)]
_TAIL_B = _read_only(np.concatenate((_B2K_OVER_FACT[:_BERNOULLI_ORDER],
                                     np.zeros(16 - _BERNOULLI_ORDER)))
                     [_TAIL_ROWS, None])
_TAIL_SHIFT = _read_only(2.0 * np.arange(1.0, 17.0)[_TAIL_ROWS] - 0.5)


@functools.cache
def _log_table(n_terms: int) -> np.ndarray:
    """log n for n = 1..n_terms - 1, read-only, once per Euler-Maclaurin
    length."""
    return _read_only(np.log(np.arange(1, n_terms, dtype=np.float64)))


def _as_complex_array(s):
    return np.asarray(s, dtype=np.complex128)


def _lanczos_sum(zz):
    """c_0 + sum_k c_k / (zz + k - 1) for 1-D zz: the terms as one table,
    its rows added in order, so each point sums in the same order in any
    batch."""
    terms = np.add.outer(_LANCZOS_SHIFT, zz)
    np.divide(_LANCZOS_ROWS, terms, out=terms)
    acc = _LANCZOS_COEF[0] + terms[0]
    for row in terms[1:]:
        acc += row
    return acc


def _gamma_raw(s):
    """Lanczos Gamma for complex arrays, no pole guard (poles give inf/nan)."""
    z = _as_complex_array(s)
    shape = z.shape
    z = z.ravel()
    reflect = z.real < 0.5
    zz = np.where(reflect, 1.0 - z, z)
    t = zz + _LANCZOS_G - 0.5
    out = _SQRT_2PI * np.exp((zz - 0.5) * np.log(t) - t) * _lanczos_sum(zz)
    if reflect.any():
        out[reflect] = np.pi / (np.sin(np.pi * z[reflect]) * out[reflect])
    return out.reshape(shape)[()]


def _bernoulli_tail(w, N: float, n_w):
    """sum_k B_{2k}/(2k)! w(w+1)...(w+2k-2) N^(1-w-2k), k = 1 up to the
    Bernoulli order, given n_w = N^(-w).

    It is N^(-w) (w/N) (b_1 + g_1 (b_2 + g_2 (...))), b_k = B_{2k}/(2k)!,
    g_k = (w + 2k - 1)(w + 2k)/N^2 = ((w + 2k - 1/2)^2 - 1/4)/N^2, and the
    nest is evaluated by Estrin's scheme on one table of the g_k: each level
    folds adjacent pairs, (q, p), (q', p') -> (q + p q', p p'), from
    (b_k, g_k).  Every step is elementwise, so a point's value does not
    depend on the batch.
    """
    g = np.add.outer(_TAIL_SHIFT, w.ravel())
    g *= g
    g -= 0.25
    g /= N * N
    q, p = _TAIL_B, g
    while len(q) > 1:
        half = len(q) // 2
        q = q[:half] + p[:half] * q[half:]
        p, second = p[:half], p[half:]
        p *= second
    return n_w * (w * q[0].reshape(w.shape)) / N


def _zeta_em_core(a, b, reflect):
    """Euler-Maclaurin zeta(w) and the points w, for s = a or s = a (+) b.

    a and b are 1-D; with b the points are the grid a_i + b_j of shape
    (a.size, b.size).  With reflect, w = 1 - s where Re s < 1/2 and w = s
    elsewhere; without it w = s, valid for Re s >= -1 (s != 1).
    """
    s = a if b is None else np.add.outer(a, b)
    left = reflect & (s.real < 0.5)
    w = np.where(left, 1.0 - s, s)
    tmax = float(np.abs(s.imag).max()) if s.size else 0.0
    n_terms = max(_EM_TERMS, int(0.6 * tmax) + 24)

    logn = _log_table(n_terms)

    def powers(x):  # n^(-x_k) = exp(-x_k log n), one row per point
        return np.exp(np.multiply.outer(-x, logn))

    if b is None:
        acc = powers(w).sum(axis=-1)
    else:
        # sum_{n < N} n^(-x_i - y_j) = sum_n powers(x)[i, n] powers(y)[j, n],
        # with (x, y) = (a, b) where w = s and (1 - a, -b) where w = 1 - s
        acc = 0.0
        for side, x, y in ((~left, a, b), (left, 1.0 - a, -b)):
            if side.any():
                acc = np.where(side, np.einsum("in,jn->ij", powers(x),
                                               powers(y)), acc)

    N = float(n_terms)
    logN = math.log(N)
    n_w = np.exp(-w * logN)  # N^(-w)
    acc = acc + np.exp((1.0 - w) * logN) / (w - 1.0) + 0.5 * n_w
    return w, acc + _bernoulli_tail(w, N, n_w)


def _completed_L_raw(s):
    """L at s from Euler-Maclaurin at w = s or w = 1 - s, whichever has
    Re w >= 1/2 (L(s) = L(1 - s))."""
    a = _as_complex_array(s)
    w, zeta_w = _zeta_em_core(a.ravel(), None, True)
    out = np.power(np.pi + 0j, -w / 2.0) * _gamma_raw(w / 2.0) * zeta_w
    return out.reshape(a.shape)[()]


def _ratio_L_raw(z, plus):
    """L(z)/L(1+z), or on the outer sum z (+) plus, in one kernel pass:
    one Euler-Maclaurin call on z and 1 + z stacked (as points, or as the
    rows of the grid), one Gamma call on w/2, and the one pi power
    pi^((w2 - w1)/2) of the module docstring."""
    a = _as_complex_array(z)
    b = None if plus is None else _as_complex_array(plus).ravel()
    n = a.size
    w, zeta_w = _zeta_em_core(np.concatenate((a.ravel(), 1.0 + a.ravel())),
                              b, True)
    gz = _gamma_raw(w / 2.0) * zeta_w
    out = np.power(np.pi + 0j, (w[n:] - w[:n]) / 2.0) * gz[:n] / gz[n:]
    return out.reshape(a.shape + np.shape(plus))[()]


def _check_pole(s, poles, what: str) -> np.ndarray:
    """s as a 1-D complex array: DomainError where it is not finite, and
    PoleProximity within POLE_EXCLUSION_RADIUS of one of the poles."""
    z = np.atleast_1d(_as_complex_array(s))
    finite = np.isfinite(z)
    if not finite.all():
        raise DomainError(f"{what}: argument {z[~finite][0]} is not finite")
    for p in poles:
        d = np.abs(z - p)
        if (d < POLE_EXCLUSION_RADIUS).any():
            bad = z[d < POLE_EXCLUSION_RADIUS][0]
            raise PoleProximity(f"{what}: argument {bad} within "
                                f"{POLE_EXCLUSION_RADIUS} of pole at {p}",
                                point=bad, pole=p)
    return z


def zeta(s):
    """Riemann zeta on the validated rectangle (pole at s = 1 excluded).

    Euler-Maclaurin directly on Re s >= -1, a route independent of L's; to
    the left of it zeta(s) = L(1 - s) / (pi^(-s/2) Gamma(s/2)).
    """
    z = _check_pole(s, (1.0,), "zeta")
    direct = z.real >= -1.0
    out = np.empty_like(z)
    out[direct] = _zeta_em_core(z[direct], None, False)[1]
    if not np.all(direct):
        w = z[~direct]
        out[~direct] = _completed_L_raw(1.0 - w) / (
            np.power(np.pi + 0j, -w / 2.0) * _gamma_raw(w / 2.0))
    return out.reshape(np.shape(s))[()]


def gamma_fn(s):
    """Gamma function; raises PoleProximity at non-positive integers."""
    z = _check_pole(s, (), "gamma_fn")
    k = np.round(z.real)
    bad = (k <= 0) & (np.abs(z - k) < POLE_EXCLUSION_RADIUS)
    if np.any(bad):
        b = z[bad][0]
        raise PoleProximity(
            f"gamma_fn: argument {b} within exclusion radius of a pole",
            point=b, pole=np.round(b.real))
    return _gamma_raw(s)


def completed_L(s):
    """Completed zeta L(s) = pi^(-s/2) Gamma(s/2) zeta(s); poles at 0 and 1.
    DomainError where a value is not finite (Gamma overflows for s >= 344)."""
    z = _check_pole(s, (0.0, 1.0), "completed_L")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _completed_L_raw(s)
    bad = ~np.isfinite(np.atleast_1d(out))
    if np.any(bad):
        raise DomainError(f"completed_L: not finite at s = {z[bad][0]}")
    return out


@functools.cache
def _laurent_c0() -> float:
    """Constant Laurent coefficient of L at s = 1 (L(s) = 1/(s-1) + c0 + ...).

    c0 is the residue of L(1 + u)/u at u = 0, taken on the circle |u| = 1/2
    with the pole of L at 0, u = -1, as its clearance.  L is real on the
    real axis, so c0 is real: the circle's imaginary part, a rounding of
    about 4e-17, is dropped, which keeps the fill at 0 exactly conjugation
    equivariant.  Computed once and cached.
    """
    return complex(circle_residue(lambda u: _completed_L_raw(1.0 + u) / u,
                                  trapezoid_circle(0.5, 1.0))).real


def _ratio_L_pass(z, plus):
    """_ratio_L_raw(z, plus), and without plus, on the upper half alone of
    a last axis of z that is conjugation symmetric, z[..., ::-1].conj() ==
    z: the lower half is the conjugate mirror of the upper, exactly, since
    ratio_L is exactly conjugation equivariant.  The upper half holds the
    centre of an odd axis (a real point) and the same largest |Im| as the
    whole, so Euler-Maclaurin takes the same length and every value is bit
    for bit the unfolded one."""
    a = _as_complex_array(z)
    n = a.shape[-1] if a.ndim else 0
    if plus is not None or n < 2 or not np.array_equal(a[..., ::-1].conj(),
                                                       a):
        return _ratio_L_raw(z, plus)
    upper = _ratio_L_raw(a[..., n // 2:], None)
    return np.concatenate((upper[..., ::-1][..., :n // 2].conj(), upper),
                          axis=-1)


def ratio_L(z, plus=None):
    """L(z)/L(1+z) with the removable singularity at z = 0 filled.

    The genuine pole sits at z = 1 (numerator pole); near z = 0 both L
    factors have simple poles with opposite residues and the quotient
    extends analytically with value -1.  With plus given the quotient is
    evaluated on the outer sum z (+) plus, of shape z.shape + plus.shape,
    through the separable kernel.  Either way L(z) and L(1+z) come from
    one kernel pass, with or without points to fill.  Without plus, a last
    axis that is conjugation symmetric is evaluated on its upper half
    (_ratio_L_pass).
    """
    arr = _as_complex_array(z if plus is None else np.add.outer(z, plus))
    _check_pole(arr, (1.0,), "ratio_L")
    tiny = np.abs(arr) < POLE_EXCLUSION_RADIUS
    if not tiny.any():
        return _ratio_L_pass(z, plus)

    # The same kernel pass; at the tiny points, where the quotient is inf or
    # nan, ratio(z) = -1 + 2 a0 z + O(z^2), a0 the Laurent constant of L at 1.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(_ratio_L_pass(z, plus))
    out[tiny] = -1.0 + 2.0 * _laurent_c0() * arr[tiny]
    return out[()]

