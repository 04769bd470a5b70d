"""Intertwining scalars: closed forms, cocycle, unitarity."""

from fractions import Fraction

import numpy as np
import pytest

from eisenspec import cli, gl3, intertwine
from eisenspec.contour import circle_nodes
from eisenspec.errors import PoleProximity
from eisenspec.gl3 import named_weyl
from eisenspec.intertwine import (cocycle_check, m_on_grid, m_scalar,
                                  unitarity_check)
from eisenspec.roots import RootDatum, WeylElement
from eisenspec.zeta import completed_L, ratio_L

GL2 = RootDatum(2)
GL3 = RootDatum(3)


def test_identity_is_one():
    lam = GL3.weight((1.4 + 0.3j, 1.7 - 0.2j))
    assert m_scalar(GL3.identity(), lam) == 1.0


def test_gl2_closed_form():
    sigma = 1.3
    got = m_scalar(GL2.simple_reflection(1), GL2.weight((sigma,)))
    want = complex(completed_L(sigma)) / complex(completed_L(1.0 + sigma))
    assert got == pytest.approx(want, rel=1e-12)


def test_gl3_long_element_closed_form():
    lam = GL3.weight((1.4, 1.7))
    s1, s2 = GL3.simple_reflection(1), GL3.simple_reflection(2)
    got = m_scalar(s1 * s2 * s1, lam)
    want = complex(ratio_L(1.4)) * complex(ratio_L(1.7)) * complex(ratio_L(3.1))
    assert got == pytest.approx(want, rel=1e-12)


def test_gl3_rotation_factors():
    lam = GL3.weight((1.2, 1.6))
    s1, s2 = GL3.simple_reflection(1), GL3.simple_reflection(2)
    r1 = s1 * s2  # inversions {alpha_2, alpha_1 + alpha_2}
    got = m_scalar(r1, lam)
    want = complex(ratio_L(1.6)) * complex(ratio_L(2.8))
    assert got == pytest.approx(want, rel=1e-12)


def test_cocycle_identity_trivial():
    lam = GL3.weight((1.5, 1.5))
    e = GL3.identity()
    assert cocycle_check(e, e, lam) == 0.0


def test_cocycle_long_element_decomposition():
    lam = GL3.weight((1.4, 1.7))
    s1, s2 = GL3.simple_reflection(1), GL3.simple_reflection(2)
    assert cocycle_check(s1, s2 * s1, lam) <= 1e-9
    assert cocycle_check(s1 * s2, s1, lam) <= 1e-9


def test_cocycle_all_pairs_seeded():
    rng = np.random.default_rng(42)
    W = GL3.weyl_group()
    for _ in range(5):
        lam = GL3.weight((complex(rng.uniform(1.1, 2.0), rng.uniform(-1, 1)),
                          complex(rng.uniform(1.1, 2.0), rng.uniform(-1, 1))))
        worst = max(cocycle_check(s, t, lam) for s in W for t in W)
        assert worst <= 1e-9


def test_unitarity_identity_exact():
    assert unitarity_check(GL3.identity(), (0.7, -1.3)) == 0.0


def test_unitarity_gl2():
    assert unitarity_check(GL2.simple_reflection(1), (2.0,)) <= 1e-9


def test_unitarity_gl3_long_element():
    s1, s2 = GL3.simple_reflection(1), GL3.simple_reflection(2)
    assert unitarity_check(s1 * s2 * s1, (0.7, -1.3)) <= 1e-9


def test_unitarity_sweep_seeded():
    rng = np.random.default_rng(7)
    W = GL3.weyl_group()
    ys = rng.uniform(-4, 4, size=(50, 2))
    worst = max(unitarity_check(w, y) for y in ys for w in W)
    assert worst <= 1e-9


def test_m_scalar_pole_guard_names_pole():
    lam = GL3.weight((1.0, 1.7))  # alpha_1 factor argument exactly 1
    s1 = GL3.simple_reflection(1)
    with pytest.raises(PoleProximity):
        m_scalar(s1, lam)


@pytest.mark.parametrize("c", [(1.5, 1.5), (0.0, 0.0)])
def test_m_on_grid_lattice_matches_separable_grid(c):
    # on the t (+) t plane the z1 + z2 root is evaluated on the 1-D lattice
    # of sums; at c = (0, 0) the grid runs through the Laurent fill at 0
    x = 1j * 0.1 * np.arange(-30, 31)
    got = list(m_on_grid(named_weyl().values(), GL3.weight(c),
                         GL3.weight((1, 0)), x, GL3.weight((0, 1)), x))
    r1 = np.asarray(ratio_L(c[0] + x))[:, None]
    r2 = np.asarray(ratio_L(c[1] + x))[None, :]
    r12 = np.asarray(ratio_L(c[0] + c[1] + x, plus=x))
    want = [np.ones((1, 1)), r1, r2, r2 * r12, r1 * r12, r1 * r2 * r12]
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w) / np.abs(w)) <= 1e-13


def test_m_on_grid_plane_is_conjugation_symmetric():
    # at base 0 on a t (+) t plane symmetric about 0, m(w, -conj lam) =
    # conj m(w, lam) must hold exactly: the lattice of sums is built from
    # grid points, so rounding cannot break the symmetry
    x = 1j * 0.1 * np.arange(-40, 41)
    for m in m_on_grid(named_weyl().values(), GL3.weight((0, 0)),
                       GL3.weight((1, 0)), x, GL3.weight((0, 1)), x):
        m = np.broadcast_to(m, (x.size, x.size))
        assert np.array_equal(m[::-1, ::-1], np.conj(m))


def test_square_grid_reads_each_transpose(monkeypatch, kernel_points):
    # on a t (+) t plane with equal base coordinates z1 and z2 take the same
    # values: two rows of one stacked call, whose points ratio_L takes once
    # up to conjugation, bit for bit the values of one-element calls
    x = 1j * 0.1 * np.arange(-30, 31)
    frame = (GL3.weight((1.5, 1.5)), GL3.weight((1, 0)), x,
             GL3.weight((0, 1)), x)
    want = [next(m_on_grid([w], *frame)) for w in named_weyl().values()]
    calls = _counting_ratio(monkeypatch)
    kernel_points.clear()
    got = list(m_on_grid(named_weyl().values(), *frame))
    assert len(calls) == 2  # z1 and z2, and the z1 + z2 lattice
    # the lattice's 121 points and the rows' 61, upper halves of each
    assert kernel_points == [2 * 61, 2 * 31]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_dropped_roots_leave_their_factors_out():
    # (w, dropped) is m(w, lam) without the ratio_L factors of dropped: at
    # rho the longest element less alpha_1 and alpha_2 is ratio_L(2)
    s3 = named_weyl()["s3"]
    lam = GL3.weight((1.3 + 0.2j, 0.4 - 0.7j))
    full = m_scalar(s3, lam)
    m, = m_on_grid([(s3, ((1, 2),))], lam)
    assert complex(m) == pytest.approx(full / complex(ratio_L(1.3 + 0.2j)),
                                       rel=1e-14)
    m, = m_on_grid([(s3, ((1, 2), (2, 3)))], GL3.rho())
    assert complex(m) == complex(ratio_L(2.0))
    with pytest.raises(ValueError):
        list(m_on_grid([(GL3.simple_reflection(1), ((2, 3),))], lam))


def _counting_ratio(monkeypatch):
    """Count intertwine's ratio_L calls: True for a separable grid."""
    calls = []

    def counting(z, plus=None):
        calls.append(plus is not None)
        return ratio_L(z, plus)

    monkeypatch.setattr(intertwine, "ratio_L", counting)
    return calls


# half steps of 0.3, as the kappa_B pickup takes them: x[::-1] == -x exactly
_SYMMETRIC = 1j * (0.3 * (np.arange(-40, 40) + 0.5))
_CIRCLE = circle_nodes(0.1, 20)


def _mirror_pair(x):
    """m(s1, .) and m(s2, .) on base (0.3, 0.3) + x (1, -1) + u (1, 1): the
    arguments 0.3 + x + u and 0.3 - x + u, one the other's mirror in x."""
    return list(m_on_grid([GL3.simple_reflection(1),
                           GL3.simple_reflection(2)], GL3.weight((0.3, 0.3)),
                          GL3.weight((1, -1)), x, GL3.weight((1, 1)),
                          _CIRCLE))


def _direct_pair(x):
    """The same two arguments, each in its own ratio_L call."""
    return [ratio_L(complex(0.3) + complex(ax) * x, plus=complex(1) * _CIRCLE)
            for ax in (1, -1)]


def test_mirrored_grid_is_the_direct_evaluation(monkeypatch, kernel_points):
    # no rule reads one grid as another's mirror: each argument is its own
    # separable pass of 2 |x| |u| points, as in its own ratio_L call, and
    # its values are that call's bit for bit
    want = _direct_pair(_SYMMETRIC)
    calls = _counting_ratio(monkeypatch)
    kernel_points.clear()
    got = _mirror_pair(_SYMMETRIC)
    assert calls == [True, True]
    assert kernel_points == [2 * _SYMMETRIC.size * _CIRCLE.size] * 2
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_asymmetric_nodes_take_no_mirror(monkeypatch):
    x = 1j * (0.3 * np.arange(-40, 40))
    want = _direct_pair(x)
    calls = _counting_ratio(monkeypatch)
    got = _mirror_pair(x)
    assert calls == [True, True]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _pickup_frames():
    """The nine (sigma_ij, line i) terms of the kappa_B pickup in its
    transverse-circle form: the Weyl elements and, per line, the frame
    (delta_i, e_i, xi_i)."""
    lines = [i for i in (1, 2, 3) for _ in (1, 2, 3)]
    return ([gl3.sigma(i, j) for i in (1, 2, 3) for j in (1, 2, 3)],
            [gl3.delta_weight(i) for i in lines],
            [gl3.line_direction(i) for i in lines],
            [gl3.delta_weight(i) for i in lines])


def _pickup_kernel_points() -> list:
    """The kernel passes of one m_on_grid call on the pickup frames: the
    four grids +-(1 + u)/2 +- x, each a separable pass of 2 |x| |u| points,
    then ratio_L(1 + u) on the circle, shared by the three lines, the one
    row of the stacked call, whose distinct points up to conjugation each
    enter once."""
    row = {complex(p.real, abs(p.imag)) for p in 1.0 + _CIRCLE}
    return [2 * _SYMMETRIC.size * _CIRCLE.size] * 4 + [2 * len(row)]


def test_multi_frame_call_matches_per_frame_calls(monkeypatch, kernel_points):
    ws, bases, x_dirs, y_dirs = _pickup_frames()
    calls = _counting_ratio(monkeypatch)
    kernel_points.clear()
    got = list(m_on_grid(ws, bases, x_dirs, _SYMMETRIC, y_dirs, _CIRCLE))
    assert calls == [True] * 4 + [False]
    assert kernel_points == _pickup_kernel_points()
    for k in (0, 3, 6):
        want = m_on_grid(ws[k:k + 3], bases[k], x_dirs[k], _SYMMETRIC,
                         y_dirs[k], _CIRCLE)
        for g, w in zip(got[k:k + 3], want):
            assert np.array_equal(g, w)


def test_m_on_grid_keeps_no_state(kernel_points):
    # a second call makes the first one's kernel passes again
    ws, bases, x_dirs, y_dirs = _pickup_frames()
    runs = []
    for _ in range(2):
        kernel_points.clear()
        list(m_on_grid(ws, bases, x_dirs, _SYMMETRIC, y_dirs, _CIRCLE))
        runs.append(list(kernel_points))
    assert runs == [_pickup_kernel_points()] * 2


def _cloud(rng, size):
    """A cloud of GL(3) weights in the cocycle range, and its points."""
    c = rng.uniform(1.1, 2.0, (2, size)) + 1j * rng.uniform(-1, 1, (2, size))
    points = [GL3.weight((complex(c[0, k]), complex(c[1, k])))
              for k in range(size)]
    return GL3.weight((c[0], c[1])), points


def test_cloud_matches_pointwise_calls():
    rng = np.random.default_rng(5)
    cloud, points = _cloud(rng, 5)
    W = list(named_weyl().values())
    size = {}
    for w, m in zip(W, m_on_grid(W, cloud)):
        want = np.array([m_scalar(w, p) for p in points])
        assert np.max(np.abs(m - want) / np.abs(want)) <= 1e-14
        size[w] = np.max(np.abs(want))
    # a cocycle residual is round-off of m(st, .), so it moves with |m|
    for s in W:
        for t in W:
            want = max(cocycle_check(s, t, p) for p in points)
            assert abs(cocycle_check(s, t, cloud) - want) <= 1e-14 * size[s * t]
    ys = rng.uniform(-4.0, 4.0, size=(50, 2))
    for w in W:
        want = max(unitarity_check(w, y) for y in ys)
        assert abs(unitarity_check(w, ys) - want) <= 1e-14


def test_one_ratio_call_per_point_evaluation(monkeypatch):
    # (shape, pointwise) of every ratio_L call of intertwine and gl3
    calls = []

    def counting(z, plus=None):
        calls.append((np.shape(z), plus is None))
        return ratio_L(z, plus)

    for module in (intertwine, gl3):
        monkeypatch.setattr(module, "ratio_L", counting)
    W = list(named_weyl().values())
    lam = GL3.weight((1.4 + 0.3j, 1.7 - 0.2j))
    for w in W:
        calls.clear()
        m_scalar(w, lam)
        assert calls == ([] if w.length() == 0 else [((w.length(),), True)])
    # all six elements at one y read one Weyl table: the three roots at
    # each of the six images t(iy), one call on their flat concatenation;
    # another y is a fresh call
    rng = np.random.default_rng(6)
    for _ in range(2):
        ys = rng.uniform(-4.0, 4.0, size=(50, 2))
        calls.clear()
        for w in W:
            unitarity_check(w, ys)
        assert calls == [((18 * 50,), True)]
    # all 36 pairs at one weight, a point or a cloud, read one Weyl table:
    # 18 arguments concatenated in one call, and another weight is a fresh
    # call
    cloud, _ = _cloud(np.random.default_rng(7), 5)
    other, _ = _cloud(np.random.default_rng(8), 5)
    for point, shape in ((lam, ()), (cloud, (5,)),
                         (GL3.weight((1.2 - 0.1j, 1.9)), ()), (other, (5,))):
        calls.clear()
        for s in W:
            for t in W:
                cocycle_check(s, t, point)
        assert calls == [((18 * int(np.prod(shape)),), True)]
    # all nine circles at a point z read one table: one pointwise call on
    # the five distinct rows of TRANSVERSE_CIRCLE's nodes, concatenated,
    # no separable 1 x n grid; another z is a fresh call
    nodes = gl3.TRANSVERSE_CIRCLE[1]
    for z in (0.7j, -1.3j):
        calls.clear()
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                gl3.transverse_residue(i, j, z)
        assert calls == [((5 * nodes,), True)]


def _worst_cocycle(lam):
    W = GL3.weyl_group()
    return max(cocycle_check(s, t, lam) for s in W for t in W)


@pytest.mark.parametrize("fault", ["weyl-action", "inversion-sets"])
def test_cocycle_sees_the_weyl_action_and_the_inversion_sets(
        monkeypatch, fresh_tables, fault):
    # cocycle_check reads m(s, .) at t lam from the Weyl action, and every
    # factor from an inversion set: a fault in either trips the gate, once
    # the Weyl table at lam is built again under it
    lam = GL3.weight((1.4 + 0.3j, 1.7 - 0.2j))
    gate = cli.TOLERANCES["cocycle"]
    assert _worst_cocycle(lam) <= gate
    if fault == "weyl-action":
        act_coords = WeylElement.act_coords
        monkeypatch.setattr(WeylElement, "act_coords", lambda w, *coords: tuple(
            c * (1.0 + 1e-7) for c in act_coords(w, *coords)))
    else:
        named = named_weyl()
        swap = {named["r1"]: named["r2"], named["r2"]: named["r1"]}
        inversions = WeylElement.inversions
        monkeypatch.setattr(WeylElement, "inversions",
                            lambda w: inversions(swap.get(w, w)))
    fresh_tables()
    assert _worst_cocycle(lam) > gate


def test_one_node_grid_matches_the_grid_path():
    # an x of one node only adds a constant to each argument, so every
    # argument, on x alone, on y alone or on both, is a row of the one
    # stacked call; it must agree with the first row of the same grid on
    # two nodes
    W = list(named_weyl().values())
    frame = (GL3.weight((0.3 + 0.1j, 1.2)), GL3.weight((1, 0)))
    x = np.array([0.4j, 0.9j])
    for y_dir, y in ((None, None), (GL3.weight((0, 1)), _CIRCLE)):
        one = list(m_on_grid(W, *frame, x[:1], y_dir, y))
        two = list(m_on_grid(W, *frame, x, y_dir, y))
        for m1, m2 in zip(one, two):
            want = np.broadcast_to(m2, (2,) + np.shape(m2)[1:])[:1]
            assert np.shape(m1) in ((), np.shape(want))
            assert np.max(np.abs(m1 - want) / np.abs(want)) <= 1e-14


def _seeded_weights(seed):
    """Five seeded weights in the cocycle range, and a 5-cloud."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(1.1, 2.0, (2, 5)) + 1j * rng.uniform(-1, 1, (2, 5))
    cloud, _ = _cloud(rng, 5)
    return [GL3.weight((complex(c[0, k]), complex(c[1, k])))
            for k in range(5)] + [cloud]


def test_weyl_table_entries_come_from_their_own_frames():
    # every pair read from the Weyl table at lam is bit for bit the pair's
    # own m_on_grid call; for t = e the table reads lam itself, so the
    # residual is exactly 0 (the per-pair call read e lam, a new weight)
    W = GL3.weyl_group()
    e = GL3.identity()
    for lam in _seeded_weights(11):
        for s in W:
            for t in W:
                got = cocycle_check(s, t, lam)
                if t == e:
                    assert got == 0.0
                    continue
                m_st, m_t, m_s = m_on_grid([s * t, t, s],
                                           [lam, lam, t.act(lam)])
                assert got == float(np.abs(m_st - m_s * m_t).max())
    rng = np.random.default_rng(12)
    for y in [rng.uniform(-4.0, 4.0, 2) for _ in range(5)] + [
            rng.uniform(-4.0, 4.0, (50, 2))]:
        lam = GL3.weight(tuple(1j * np.atleast_2d(y).T))
        for w in W:
            m, = m_on_grid([w], lam)
            assert unitarity_check(w, y) == float(
                np.max(np.abs(np.abs(m) - 1.0)))


def test_weyl_table_holds_the_last_argument_only(monkeypatch):
    # at a, then b, then a: each switch is a fresh kernel pass, and each
    # value is the one a first call at that argument gives
    W = GL3.weyl_group()
    a, b = _seeded_weights(13)[:2]

    def residuals(lam):
        return [cocycle_check(s, t, lam) for s in W for t in W]

    want = {id(a): residuals(a), id(b): residuals(b)}
    calls = _counting_ratio(monkeypatch)
    for lam in (a, b, a):
        calls.clear()
        assert residuals(lam) == want[id(lam)]
        assert len(calls) == 1
    # an equal weight built afresh reads the table; a patched evaluator
    # does not
    same = GL3.weight(tuple(complex(c) for c in a.coeffs))
    calls.clear()
    assert residuals(same) == want[id(a)] and calls == []
    monkeypatch.setattr(intertwine, "m_on_grid", lambda *args: m_on_grid(
        *args))
    assert residuals(same) == want[id(a)] and len(calls) == 1
    # exact coordinates key by value, never by the address of the object
    counts = []
    for coords in ((Fraction(3, 2), Fraction(7, 5)),
                   (Fraction(3, 2), Fraction(7, 5)), (1.5, 1.4)):
        calls.clear()
        residuals(GL3.weight(coords))
        counts.append(len(calls))
    assert counts == [1, 0, 1]
