"""Scalar intertwining factors for K-invariant data on split GL(n).

On the line of K-invariant constant functions the intertwining operator
attached to a Weyl element w acts by the scalar

    m(w, lam) = prod over {alpha > 0 : w(alpha) < 0} of
                L(<lam, alpha_check>) / L(1 + <lam, alpha_check>),

a product of completed-zeta ratios over the inversion set of w.  The two
structural properties verified numerically downstream are the cocycle
identity m(st, lam) = m(s, t lam) m(t, lam) and unimodularity on the
purely imaginary axis.
"""

from __future__ import annotations

import numpy as np

from .roots import Weight, WeylElement
from .zeta import ratio_L

__all__ = [
    "m_on_grid",
    "m_scalar",
    "cocycle_check",
    "unitarity_check",
]


def _sum_ratio(a0: complex, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """ratio_L(a0 + p_i + q_j) on the (p.size, q.size) outer sum.

    If p and q are arithmetic progressions of one step h = p_1 - p_0 (every
    difference within rounding of h), the sums lie on a 1-D lattice, taken
    as the grid sums down the first column and along the last row, so that
    a grid symmetric about 0 gives an exactly antisymmetric lattice.  One
    ratio_L call on its |p| + |q| - 1 points is read as the (p.size, q.size)
    Hankel view vals[i + j], which copies nothing.  Otherwise the outer sum
    is evaluated as a separable grid.
    """
    h = p[1] - p[0] if p.size > 1 else np.nan
    tol = 4.0 * np.finfo(np.float64).eps * np.max(np.abs(np.append(p, q)))
    if q.size < 2 or not all(np.all(np.abs(np.diff(v) - h) <= tol)
                             for v in (p, q)):
        return np.asarray(ratio_L(a0 + p, plus=q))
    vals = np.asarray(ratio_L(a0 + np.concatenate((p + q[0], p[-1] + q[1:]))))
    return np.lib.stride_tricks.sliding_window_view(vals, q.size)


def _kept_roots(w: WeylElement, dropped: tuple) -> frozenset:
    """The inversion set of w without the roots in dropped, which it must
    hold."""
    inversions = w.inversions()
    if not inversions.issuperset(dropped):
        raise ValueError(f"roots {dropped} are not all inversions of {w}")
    return inversions.difference(dropped)


def m_on_grid(ws, base: Weight | list[Weight],
              x_dir: Weight | list[Weight] | None = None, x=None,
              y_dir: Weight | list[Weight] | None = None, y=None):
    """Yield m(w, lam) for each w in ws, at lam = base + x_k x_dir (+ y_l y_dir).

    The one evaluator of the intertwining scalars.  An element of ws may
    also be a pair (w, dropped), dropped a tuple of roots of w's inversion
    set: its product leaves out their factors, so that on the planes
    <lam, root_check> = 1 it is the residue of m(w, .) across them over
    Res_{s=1} ratio_L per root.  On a grid, base, x_dir
    and y_dir may each be a list with one weight per element of ws: the
    frame of that element's grid.  Each root argument <lam, root_check> =
    a0 + ax x_k + ay y_l is an outer sum, and ratio_L is called once per
    distinct triple (a0, ax, ay) over every frame and inversion set: on the
    1-D nodes when the argument depends on x or y alone, and on the outer
    sum otherwise (see _sum_ratio).  When x[::-1] == -x exactly, a triple
    whose mirror (a0, -ax, ay) is already evaluated is read as that array
    reversed along x, and when y equals x, a triple (a0, c, 0) or (a0, 0, c)
    whose transpose is already evaluated is read as that array transposed:
    views of bit-identical values.  Without x, base may
    be a cloud of weights (coordinate arrays of one broadcast shape), and
    one stacked ratio_L call takes every root at every point;
    Euler-Maclaurin then takes its term count for all of them from the
    largest |Im| in the cloud.  The products are formed as they are
    consumed; each broadcasts to (x.size, y.size), to x.shape without y,
    and to the cloud's shape without x.
    """
    inversions = [sorted(w.inversions()) if not isinstance(w, tuple)
                  else sorted(_kept_roots(*w)) for w in ws]
    ratios = {}
    if x is None:
        keys = inversions
        roots = sorted(set().union(*inversions))
        if roots:
            args = np.broadcast_arrays(*(
                np.asarray(base.pair_root(root), dtype=np.complex128)
                for root in roots))
            ratios = dict(zip(roots, ratio_L(np.stack(args))))
    else:
        x = np.asarray(x)
        frames = zip(*(d if isinstance(d, list) else [d] * len(inversions)
                       for d in (base, x_dir, y_dir)))
        keys = [[(complex(b.pair_root(root)), complex(dx.pair_root(root)),
                  complex(dy.pair_root(root)) if y is not None else 0j)
                 for root in inverted]
                for (b, dx, dy), inverted in zip(frames, inversions)]
        mirror = np.array_equal(x[::-1], -x)
        square = y is not None and np.array_equal(x, y)
        for a0, ax, ay in dict.fromkeys(k for row in keys for k in row):
            if mirror and (a0, -ax, ay) in ratios:
                vals = ratios[a0, -ax, ay][::-1]
            elif square and 0 in (ax, ay) and (a0, ay, ax) in ratios:
                vals = ratios[a0, ay, ax].T
            elif ay == 0:
                vals = np.asarray(ratio_L(a0 + ax * x))
                vals = vals if y is None else vals[:, None]
            elif ax == 0:
                vals = np.asarray(ratio_L(a0 + ay * y))[None, :]
            else:
                vals = _sum_ratio(a0, ax * x, ay * np.asarray(y))
            ratios[a0, ax, ay] = vals
    for row in keys:
        m = 1.0 + 0.0j
        for key in row:
            m = m * ratios[key]
        yield m


def m_scalar(w: WeylElement, lam: Weight) -> complex:
    """Product of completed-zeta ratios over the inversion set of w."""
    m, = m_on_grid([w], lam)
    return complex(m)


def cocycle_check(s: WeylElement, t: WeylElement, lam: Weight) -> float:
    """max |m(st, lam) - m(s, t lam) m(t, lam)| over lam, a weight or a
    cloud (see m_on_grid); zero in exact arithmetic.  lam and t lam are
    stacked into one cloud of leading axis 2, so one ratio_L call takes
    all three factors."""
    coeffs = np.broadcast_arrays(*lam.coeffs, *t.act(lam).coeffs)
    rank = lam.datum.rank
    pair = lam.datum.weight(tuple(np.stack((c, tc)) for c, tc
                                  in zip(coeffs[:rank], coeffs[rank:])))
    m_st, m_t, m_s = (np.broadcast_to(m, (2,) + coeffs[0].shape)
                      for m in m_on_grid([s * t, t, s], pair))
    return float(np.max(np.abs(m_st[0] - m_s[1] * m_t[0])))


def unitarity_check(w: WeylElement, y) -> float:
    """max | |m(w, i y)| - 1 | over the rows of y, each a real coordinate
    vector; a single vector is one row."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    m, = m_on_grid([w], w.datum.weight(tuple(1j * y.T)))
    return float(np.max(np.abs(np.abs(m) - 1.0)))

