"""Scalar intertwining factors for K-invariant data on split GL(n).

On the line of K-invariant constant functions the intertwining operator
attached to a Weyl element w acts by the scalar

    m(w, lam) = prod over {alpha > 0 : w(alpha) < 0} of
                L(<lam, alpha_check>) / L(1 + <lam, alpha_check>),

a product of completed-zeta ratios over the inversion set of w.  The two
structural properties verified numerically downstream are the cocycle
identity m(st, lam) = m(s, t lam) m(t, lam) and unimodularity on the
purely imaginary axis.  Both read one Weyl table per argument: m(w, t lam)
for every (t, w) in W x W from one m_on_grid call, held in a table of one
entry (one_entry_table), so the 36 GL(3) pairs at one weight, or the six
elements at one y, cost one kernel pass.
"""

from __future__ import annotations

import functools

import numpy as np

from .roots import Weight, WeylElement
from .zeta import ratio_L

__all__ = [
    "m_on_grid",
    "m_scalar",
    "cocycle_check",
    "unitarity_check",
    "one_entry_table",
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


def _stacked_ratios(args: dict) -> dict:
    """ratio_L at every argument of args, one per key, in one call: the
    arguments stacked when they share a shape, else their flat
    concatenation, each value read back in its argument's shape."""
    if not args:
        return {}
    if len({getattr(a, "shape", ()) for a in args.values()}) == 1:
        return dict(zip(args, ratio_L(np.array(list(args.values()),
                                                dtype=np.complex128))))
    arrays = [np.asarray(a, dtype=np.complex128) for a in args.values()]
    flat = np.asarray(ratio_L(np.concatenate([a.ravel() for a in arrays])))
    ends = np.cumsum([a.size for a in arrays[:-1]])
    return {key: v.reshape(a.shape)
            for key, v, a in zip(args, np.split(flat, ends), arrays)}


def _grid_ratios(keys: list, x: np.ndarray, y) -> dict:
    """ratio_L on the (x.size, y.size) outer sum a0 + ax x_k + ay y_l of
    each distinct key (a0, ax, ay), one call per key but for the mirrors
    and transposes read from a key already evaluated (see m_on_grid)."""
    ratios = {}
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
    return ratios


def m_on_grid(ws, base: Weight | list[Weight],
              x_dir: Weight | list[Weight] | None = None, x=None,
              y_dir: Weight | list[Weight] | None = None, y=None):
    """Yield m(w, lam) for each w in ws, at lam = base + x_k x_dir (+ y_l y_dir).

    The one evaluator of the intertwining scalars.  An element of ws may
    also be a pair (w, dropped), dropped a tuple of roots of w's inversion
    set: its product leaves out their factors, so that on the planes
    <lam, root_check> = 1 it is the residue of m(w, .) across them over
    Res_{s=1} ratio_L per root.  base, and on a grid x_dir and y_dir, may
    each be a list with one entry per element of ws: the weight or cloud,
    or the frame of the grid, at which that element is read.

    Without x, base is a weight or a cloud of weights (coordinate arrays
    that broadcast together).  Each distinct (base, root), a base passed
    twice counting once, is one argument <base, root_check>, and one
    ratio_L call takes them all (see _stacked_ratios); Euler-Maclaurin then
    takes its term count for all of them from the largest |Im| among them.

    On a grid each root argument <lam, root_check> = a0 + ax x_k + ay y_l
    is an outer sum.  When x has one node, every distinct row a0 + ax x_0
    + ay y (one point where ay = 0) goes into one stacked ratio_L call, as
    a cloud would.  Otherwise ratio_L is called once per distinct triple
    (a0, ax, ay) over every frame and inversion set: on the 1-D nodes when
    the argument depends on x or y alone, and on the outer sum otherwise
    (see _sum_ratio).  When x[::-1] == -x exactly, a triple whose mirror
    (a0, -ax, ay) is already evaluated is read as that array reversed
    along x, and when y equals x, a triple (a0, c, 0) or (a0, 0, c) whose
    transpose is already evaluated is read as that array transposed: views
    of bit-identical values.

    The products are formed as they are consumed; each broadcasts to
    (x.size, y.size), to x.shape without y, and to the cloud's shape
    without x.
    """
    inversions = [sorted(w.inversions()) if not isinstance(w, tuple)
                  else sorted(_kept_roots(*w)) for w in ws]
    if x is None:
        bases = base if isinstance(base, list) else [base] * len(inversions)
        # a key names its base by the first element that passes it
        first = {}
        keys = [[(first.setdefault(id(b), k), root) for root in inverted]
                for k, (b, inverted) in enumerate(zip(bases, inversions))]
        ratios = _stacked_ratios({
            key: bases[key[0]].pair_root(key[1])
            for key in dict.fromkeys(k for row in keys for k in row)})
    else:
        x = np.asarray(x)
        frames = zip(*(d if isinstance(d, list) else [d] * len(inversions)
                       for d in (base, x_dir, y_dir)))
        keys = [[(complex(b.pair_root(root)), complex(dx.pair_root(root)),
                  complex(dy.pair_root(root)) if y is not None else 0j)
                 for root in inverted]
                for (b, dx, dy), inverted in zip(frames, inversions)]
        if x.size == 1:
            # a row is keyed by its point a0 + ax x_0 and its slope ay
            x0 = x.item()
            keys = [[(a0 + ax * x0, ay) for a0, ax, ay in row]
                    for row in keys]
            point = x.shape if y is None else (1, 1)
            ratios = _stacked_ratios({
                (c, ay): np.full(point, c) if ay == 0
                else c + ay * np.asarray(y)[None, :]
                for c, ay in dict.fromkeys(k for row in keys for k in row)})
        else:
            ratios = _grid_ratios(keys, x, y)
    for row in keys:
        m = 1.0 + 0.0j
        for key in row:
            m = m * ratios[key]
        yield m


# Every table of one_entry_table, so that all of them can be emptied at once.
_TABLES = []


def _exact(value):
    """A hashable key that equals another exactly when the values are the
    same bits: a weight by its datum and coordinates, an array or number by
    its dtype, shape and bytes (exact numbers such as Fraction by value)."""
    if isinstance(value, Weight):
        return value.datum, tuple(map(_exact, value.coeffs))
    a = np.asarray(value)
    if a.dtype == object:
        return a.shape, tuple((type(v), v) for v in a.flat)
    return a.dtype, a.shape, a.tobytes()


def one_entry_table(build):
    """build(evaluator, arg) behind a table of one entry.

    The entry is keyed by the evaluator, as bound where the table is read,
    and by the exact value of the argument (_exact).  A run of reads at one
    argument costs one build; a read at another argument, or through
    another evaluator (a wrapped or patched one), builds afresh and
    replaces the entry, so no read ever returns a value that its own
    evaluator and argument did not compute.  A build that raises leaves the
    entry as it was.  The table's values are shared between its readers,
    which must not write into them.  table.cache_clear() empties it.
    """
    entry = []

    @functools.wraps(build)
    def table(evaluator, arg):
        key = evaluator, _exact(arg)
        if not entry or entry[0] != key:
            value = build(evaluator, arg)
            entry[:] = key, value
        return entry[1]

    table.cache_clear = entry.clear
    _TABLES.append(table)
    return table


@one_entry_table
def _weyl_table(m, lam: Weight) -> dict:
    """m(w, t lam) for every (t, w) in W x W, keyed (t, w), from one call of
    the evaluator m (m_on_grid): t lam is t.act(lam), and lam itself for
    t = e.  Each base is passed as one object, so each argument <t lam,
    root_check> enters the one stacked ratio_L call once: at most
    |W| |Phi+| of them (18 for GL(3))."""
    weyl = lam.datum.weyl_group()
    images = [t.act(lam) if t.length() else lam for t in weyl]
    pairs = [(t, w) for t in weyl for w in weyl]
    return dict(zip(pairs, m([w for _, w in pairs],
                             [image for image in images for _ in weyl])))


def m_scalar(w: WeylElement, lam: Weight) -> complex:
    """Product of completed-zeta ratios over the inversion set of w."""
    m, = m_on_grid([w], lam)
    return complex(m)


def cocycle_check(s: WeylElement, t: WeylElement, lam: Weight) -> float:
    """max |m(st, lam) - m(s, t lam) m(t, lam)| over lam, a weight or a
    cloud (see m_on_grid); zero in exact arithmetic, and exactly zero for
    t = e.  The three values are entries of the Weyl table at lam, so every
    pair at one lam reads the table of one kernel pass."""
    table = _weyl_table(m_on_grid, lam)
    e = lam.datum.identity()
    m_st, m_t, m_s = table[e, s * t], table[e, t], table[t, s]
    return float(np.abs(m_st - m_s * m_t).max())


def unitarity_check(w: WeylElement, y) -> float:
    """max | |m(w, i y)| - 1 | over the rows of y, each a real coordinate
    vector; a single vector is one row.  m(w, i y) is the (e, w) entry of
    the Weyl table at i y, so every element at one y reads one table."""
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    lam = w.datum.weight(tuple(1j * y.T))
    m = _weyl_table(m_on_grid, lam)[w.datum.identity(), w]
    return float(np.max(np.abs(np.abs(m) - 1.0)))
