"""GL(3) residue data: sigma table, N(z) lemmas, transverse and double
residues, volume constants.  Closed forms and contour quadrature verify
each other in both directions."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from eisenspec import gl3
from eisenspec.errors import DomainError, PoleProximity
from eisenspec.contour import circle_nodes, circle_residue, trapezoid_circle
from eisenspec.gl3 import (GL3, delta_weight, double_residue_closed_forms,
                           double_residue_table, lambda_line, line_direction,
                           max_minor, multiplicativity_residual, n_entry,
                           n_matrix, rank_one_residual, sigma,
                           symmetry_residual, transverse_residue,
                           volume_constant, volume_factors)
from eisenspec.intertwine import m_scalar
from eisenspec.roots import RHO_CHECK, RootDatum
from eisenspec.zeta import completed_L, ratio_L

# frozen oracle values (mpmath): 1/L(2)^2 and 1/(L(2) L(3))
INV_L2_SQ = 3.6475626111241587
INV_L2_L3 = 9.9828884709684940


def _names():
    s1 = GL3.simple_reflection(1)
    s2 = GL3.simple_reflection(2)
    return {"s1": s1, "s2": s2, "s3": s1 * s2 * s1,
            "r1": s1 * s2, "r2": s2 * s1}


def test_sigma_table_matches_matrix_layout():
    n = _names()
    table = {(1, 1): "s1", (1, 2): "s3", (1, 3): "r2",
             (2, 1): "s3", (2, 2): "s2", (2, 3): "r1",
             (3, 1): "r1", (3, 2): "r2", (3, 3): "s3"}
    for (i, j), name in table.items():
        assert sigma(i, j) == n[name]


def test_sigma_defining_property():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            img = sigma(i, j).act(delta_weight(i))
            assert img.coeffs == tuple(-c for c in delta_weight(j).coeffs)


def test_sigma_carries_directions():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            img = sigma(i, j).act(line_direction(i))
            assert img.coeffs == line_direction(j).coeffs


def test_lines_are_orthogonal_pairs():
    for i in (1, 2, 3):
        assert delta_weight(i).inner(line_direction(i)) == 0


def test_lambda_line_invariants():
    for z in (0.0, 0.5j, 1.3j, 0.2 + 0.4j):
        lam1 = lambda_line(1, z)
        assert lam1.pairing(1) == pytest.approx(1.0)
        assert lam1.pairing(2) == pytest.approx(-0.5 - z)
        assert lambda_line(2, z).pairing(2) == pytest.approx(1.0)
        assert lambda_line(3, z).pairing(RHO_CHECK) == pytest.approx(1.0)
    assert lambda_line(3, 0.0).coeffs == (0.5 + 0.0j, 0.5 + 0.0j)  # rho/2


def test_line_pairing_coincidence_exact():
    # the collapse 1 + <lam_1, a2_check> = <lam_1, rho_check> as affine
    # functions of z, in exact rational arithmetic
    d1, e1 = delta_weight(1), line_direction(1)
    assert 1 + d1.pairing(2) == d1.pairing(RHO_CHECK) == Fraction(1, 2)
    assert e1.pairing(2) == e1.pairing(RHO_CHECK) == -1
    d2, e2 = delta_weight(2), line_direction(2)
    assert 1 + d2.pairing(1) == d2.pairing(RHO_CHECK) == Fraction(1, 2)
    assert e2.pairing(1) == e2.pairing(RHO_CHECK) == 1


def test_singular_elements_along_each_line():
    # {sigma_i1, sigma_i2, sigma_i3} are exactly the Weyl elements whose
    # inversion set contains the root cutting out Line_i
    line_root = {1: (1, 2), 2: (2, 3), 3: (1, 3)}
    for i in (1, 2, 3):
        expected = {w for w in GL3.weyl_group()
                    if line_root[i] in w.inversions()}
        assert {sigma(i, j) for j in (1, 2, 3)} == expected


def test_n_entry_closed_forms():
    z = 0.8j
    L = lambda u: complex(completed_L(u))
    assert n_entry(1, 1, z) == 1.0
    assert n_entry(2, 2, z) == 1.0
    assert n_entry(1, 2, z) == pytest.approx(L(-z - 0.5) / L(-z + 1.5), rel=1e-13)
    assert n_entry(1, 3, z) == pytest.approx(L(-z + 0.5) / L(-z + 1.5), rel=1e-13)
    assert n_entry(2, 1, z) == pytest.approx(L(z - 0.5) / L(z + 1.5), rel=1e-13)
    assert n_entry(3, 3, z) == pytest.approx(
        n_entry(3, 1, z) * n_entry(3, 2, z), rel=1e-13)


def test_n_matrix_on_an_array_equals_scalar_calls():
    zs = np.array([0.8j, -1.3j, 0.3 + 0.4j, -0.3 - 2.1j, 0.0])
    n = n_matrix(zs)
    assert n.shape == (3, 3, zs.size)
    for k, z in enumerate(zs):
        np.testing.assert_allclose(n[..., k], n_matrix(z), rtol=1e-15, atol=0)


@pytest.mark.parametrize("z", [
    1j * 0.21 * np.arange(-60, 61),
    1j * 0.21 * (np.arange(-60, 60) + 0.5),
    (0.3 + 0.8j) * 0.21 * np.arange(-20, 21),
], ids=["axis-odd", "axis-even", "off-axis"])
def test_n_matrix_mirror_matches_point_calls(monkeypatch, z):
    # z[::-1] == -z: the rows at -z -+ 1/2 are read reversed, bit for bit
    # the ratio_L values of each point alone (|Im| <= 40 keeps the
    # Euler-Maclaurin length at 48 for both), and one call on the two rows
    # at z -+ 1/2 reaches ratio_L, which folds them again to their upper
    # halves on the imaginary axis
    assert np.array_equal(z[::-1], -z)
    calls = []
    monkeypatch.setattr(gl3, "ratio_L",
                        lambda arg: calls.append(arg.shape) or ratio_L(arg))
    n = n_matrix(z)
    assert calls == [(2, z.size)]
    r_mm, r_mp, r_pm, r_pp = (np.array([complex(ratio_L(p)) for p in row])
                              for row in (-z - 0.5, -z + 0.5, z - 0.5,
                                          z + 0.5))
    for (i, j), want in (((0, 2), r_mp), ((2, 1), r_mp), ((1, 2), r_pp),
                         ((2, 0), r_pp), ((0, 1), r_mm * r_mp),
                         ((1, 0), r_pm * r_pp), ((2, 2), r_pp * r_mp)):
        assert np.array_equal(n[i, j], want)


# Off the axis n_12 (n_21) needs L at Re -0.8, which L reaches through
# L(s) = L(1 - s), not by Euler-Maclaurin summation there.
@pytest.mark.parametrize("re", [0.0, 0.3, -0.3])
def test_n_matrix_matches_mpmath(re):
    def L(w):
        return mp.pi ** (-w / 2) * mp.gamma(w / 2) * mp.zeta(w)

    with mp.workdps(30):
        for im in (-2.3, -0.6, 0.0, 0.9, 2.7):
            z = complex(re, im)
            w = mp.mpc(re, im)
            n13, n23 = L(-w + 0.5) / L(-w + 1.5), L(w + 0.5) / L(w + 1.5)
            want = np.array([
                [1, L(-w - 0.5) / L(-w + 1.5), n13],
                [L(w - 0.5) / L(w + 1.5), 1, n23],
                [n23, n13, n23 * n13]], dtype=np.complex128)
            got = n_matrix(z)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_n_entry_poles_and_indices():
    with pytest.raises(PoleProximity):
        n_entry(2, 3, 0.5)      # L(z + 1/2) at its pole
    with pytest.raises(PoleProximity):
        n_entry(2, 1, 1.5)      # L(z - 1/2) at its pole
    with pytest.raises(ValueError):
        n_entry(4, 1, 0.3j)


def test_nmatrix_lemmas_on_axis():
    rng = np.random.default_rng(9)
    pts = 1j * np.concatenate([[0.0, 0.7, 2.3, 1.1], rng.uniform(-3, 3, 16)])
    for z in pts:
        assert rank_one_residual(z) <= 1e-9
        assert symmetry_residual(z) <= 1e-12
        assert multiplicativity_residual(z) <= 1e-9


def test_symmetry_residual_catches_a_consistent_wrong_table(monkeypatch):
    # N built at +-z +- 0.6 in place of +-z +- 1/2: every entry still
    # equals its transpose at -z and the table is rank one, but it is not
    # the residue matrix of the m-scalars
    def shifted(z):
        z = np.asarray(z, dtype=np.complex128)
        r_mm, r_mp, r_pm, r_pp = ratio_L(
            np.stack((-z - 0.6, -z + 0.6, z - 0.6, z + 0.6)))
        one = np.ones_like(z)
        return np.array([[one, r_mm * r_mp, r_mp], [r_pm * r_pp, one, r_pp],
                         [r_pp, r_mp, r_pp * r_mp]])

    zs = 1j * np.linspace(-3.0, 3.0, 7)
    # transposing the table at -z passes the CLI gate of nmatrix-symmetry
    assert np.max(np.abs(shifted(zs) - np.swapaxes(shifted(-zs), 0, 1))) <= 1e-12
    assert max_minor(shifted(zs)) <= 1e-9
    monkeypatch.setattr(gl3, "n_matrix", shifted)
    assert symmetry_residual(zs) > 1


def test_multiplicativity_k_choice_consistent():
    z = 1.4j
    m = n_matrix(z)
    for i in range(3):
        for j in range(3):
            via_k1 = m[i, 0] * np.conj(m[j, 0])
            via_k2 = m[i, 1] * np.conj(m[j, 1])
            assert abs(via_k1 - via_k2) <= 1e-10


def test_array_calls_match_point_calls():
    rng = np.random.default_rng(17)
    zs = 1j * rng.uniform(-2.5, 2.5, (2, 3))
    points = zs.ravel()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            got = transverse_residue(i, j, zs)
            assert got.shape == zs.shape
            want = np.array([transverse_residue(i, j, z) for z in points])
            assert np.all(np.abs(got.ravel() - want) <= 1e-13 * np.abs(want))
    assert isinstance(transverse_residue(1, 2, 0.4j), complex)
    for residual in (rank_one_residual, symmetry_residual,
                     multiplicativity_residual):
        assert residual(zs) == pytest.approx(
            max(residual(z) for z in points), abs=1e-13)
    assert max_minor(n_matrix(zs)) == rank_one_residual(zs)
    with pytest.raises(ValueError):
        multiplicativity_residual(np.append(points, 0.1 + 1j))


def test_circle_residue_one_circle():
    # (1/2pi i) oint e^u / u du = 1
    assert abs(circle_residue(lambda u: np.exp(u) / u, (0.5, 32)) - 1) <= 1e-14


def test_circle_residue_keeps_leading_axes():
    # outer circle first; c / (u_out u_in) has double residue c
    def f(u_out, u_in):
        return np.array([1.0, 2.0])[:, None, None] / np.multiply.outer(u_out,
                                                                         u_in)

    got = circle_residue(f, (0.3, 8), (0.1, 16))
    assert got.shape == (2,)
    np.testing.assert_allclose(got, [1.0, 2.0], rtol=1e-14)


def test_transverse_residue_matches_closed_form():
    L2 = complex(completed_L(2.0))
    rng = np.random.default_rng(21)
    zs = 1j * np.concatenate([[0.5], rng.uniform(-2.5, 2.5, 19)])
    for z in zs:
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                got = transverse_residue(i, j, z)
                want = n_entry(i, j, z) / L2
                assert abs(got - want) / abs(want) <= 1e-6


def test_transverse_residue_diagonal_value():
    got = transverse_residue(1, 1, 0.5j)
    want = 1.0 / complex(completed_L(2.0))
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("z", [0.0, 1.0, 1.0 + 0.5j, -1.0 + 0.5j, 2.5 + 3j,
                               13.6j, 2.0 - 13.6j])
def test_transverse_residue_inside_its_domain(z):
    # on the edges |2z -+ 1| = 1, |2z -+ 3| = 1 and |Im z| = 13.6 the
    # circle's clearance is still 1
    L2 = complex(completed_L(2.0))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            want = n_entry(i, j, z) / L2
            assert abs(transverse_residue(i, j, z) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("z", [0.49, 0.5 + 0.01j, 0.52, -1.5 + 0.3j, 14j,
                               14.1347j])
def test_transverse_residue_refuses_z_outside_its_domain(z):
    # there the circle comes within 1 of a pole, or holds one: the value
    # would be off by up to 2 in relative terms
    with pytest.raises(DomainError):
        transverse_residue(1, 2, z)
    with pytest.raises(DomainError):
        transverse_residue(1, 2, np.array([0.4j, z]))


def test_transverse_direction_normalization():
    # transverse_residue's u-direction is delta_i: <delta_i, beta_check_i>
    # = 1, with no component along the line direction e_i
    idx = {1: 1, 2: 2, 3: RHO_CHECK}
    for i in (1, 2, 3):
        assert delta_weight(i).pairing(idx[i]) == 1
        assert delta_weight(i).inner(line_direction(i)) == 0


def test_double_residue_table_values():
    table = double_residue_table()
    forms = double_residue_closed_forms()
    expected_points = [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0),
                       (1.0, 1.0)]
    for (w, pt, val), form, want_pt in zip(table, forms, expected_points):
        assert pt.coeffs == want_pt
        assert abs(val - form) / abs(form) <= 1e-6
    # numeric magnitudes against the frozen oracles
    assert table[0][2].real == pytest.approx(INV_L2_SQ, rel=1e-9)
    assert table[2][2].real == pytest.approx(-INV_L2_SQ, rel=1e-9)
    assert table[4][2].real == pytest.approx(INV_L2_L3, rel=1e-9)


def test_double_residue_at_rho_matches_pointwise_circles():
    # s3 at rho: inner circle in z1, outer in z2, every node point by point
    u_in = circle_nodes(0.1, 96)[None, :]
    u_out = circle_nodes(0.3, 96)[:, None]
    z1 = 1.0 + u_in + 0.0 * u_out
    z2 = 1.0 + u_out + 0.0 * u_in
    m = (np.asarray(ratio_L(z1)) * np.asarray(ratio_L(z1 + z2))
         * np.asarray(ratio_L(z2)))
    want = complex(np.mean(m * u_in * u_out))
    assert abs(double_residue_table()[4][2] - want) <= 1e-13


@pytest.mark.parametrize("radius, clearance, nodes", [(0.3, 1.0, 32),
                                                       (0.1, 0.3, 34),
                                                       (0.1, 0.75, 20)])
def test_trapezoid_circle_takes_the_fewest_even_nodes(radius, clearance,
                                                      nodes):
    assert trapezoid_circle(radius, clearance) == (radius, nodes)
    assert (radius / clearance) ** nodes <= 2.0 ** -53
    assert (radius / clearance) ** (nodes - 2) > 2.0 ** -53


def test_trapezoid_circle_rejects_a_circle_past_the_clearance():
    with pytest.raises(ValueError):
        trapezoid_circle(0.3, 0.3)


def test_double_residue_cancellation():
    table = double_residue_table()
    cancel = sum(v for (_, pt, v) in table if pt.coeffs != (1.0, 1.0))
    assert abs(cancel) <= 1e-8


def test_volume_factors_and_values():
    assert volume_factors(RootDatum(2)) == [2]
    assert volume_factors(RootDatum(3)) == [2, 3]
    assert volume_factors(RootDatum(4)) == [2, 3, 4]
    L2 = float(np.real(completed_L(2.0)))
    L3 = float(np.real(completed_L(3.0)))
    L4 = float(np.real(completed_L(4.0)))
    assert volume_constant(RootDatum(2)) == pytest.approx(np.pi / 6.0, abs=1e-12)
    assert volume_constant(RootDatum(3)) == pytest.approx(L2 * L3, abs=1e-12)
    assert volume_constant(RootDatum(4)) == pytest.approx(L2 * L3 * L4, abs=1e-12)
    # L(2)...L(61) overflows a double though each factor is finite
    with pytest.raises(DomainError):
        volume_constant(RootDatum(61))


def test_transverse_residue_consistent_with_m_scalar():
    # independent route: evaluate m on the circle by hand and average
    i, j, z = 2, 3, 0.9j
    w = sigma(i, j)
    base = lambda_line(i, z)
    xi = delta_weight(i)
    u = circle_nodes(0.25, 256)
    vals = []
    for uu in u:
        lam = GL3.weight(tuple(complex(a) + uu * complex(b)
                               for a, b in zip(base.coeffs, xi.coeffs)))
        vals.append(m_scalar(w, lam))
    hand = np.mean(np.array(vals) * u)
    assert hand == pytest.approx(transverse_residue(i, j, z), rel=1e-9)


def _seeded_z(seed):
    """Five seeded points z on the imaginary axis, and an array of five
    off it, |Im z| >= 0.6 keeping them inside the circle's domain."""
    rng = np.random.default_rng(seed)
    return [1j * complex(t) for t in rng.uniform(-2.5, 2.5, 5)] + [
        rng.uniform(-0.3, 0.3, 5)
        + 1j * rng.choice([-1.0, 1.0], 5) * rng.uniform(0.6, 2.5, 5)]


def test_circle_table_entries_come_from_their_own_frames():
    # every circle read from the nine-frame table at z is bit for bit the
    # circle of its own frame alone
    for z in _seeded_z(21):
        zs = np.asarray(z, dtype=np.complex128)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                res = circle_residue(lambda u: next(gl3.m_on_grid(
                    [sigma(i, j)], delta_weight(i), line_direction(i),
                    zs.ravel(), delta_weight(i), u)), gl3.TRANSVERSE_CIRCLE)
                want = np.broadcast_to(res, zs.size).reshape(zs.shape)
                assert np.array_equal(transverse_residue(i, j, z), want)


def test_tables_hold_the_last_argument_and_lend_nothing():
    # at a, then b, then a, each value is the one a first call gives, and
    # writing into a returned array changes no later read, the next read
    # at the same argument included
    a, b = _seeded_z(22)[0], _seeded_z(22)[-1]
    want = {id(z): ([transverse_residue(i, j, z) for i in (1, 2, 3)
                     for j in (1, 2, 3)], n_matrix(z)) for z in (a, b)}
    for z in (a, b, a, b):
        circles, n = want[id(z)]
        for _ in range(2):
            got = [transverse_residue(i, j, z) for i in (1, 2, 3)
                   for j in (1, 2, 3)]
            for g, w in zip(got, circles):
                assert np.array_equal(g, w)
                if isinstance(g, np.ndarray):
                    g[...] = 7.0
            gl3.n_matrix(z)[...] = 7.0
            if np.ndim(z) == 0:
                assert np.array_equal([[n_entry(i, j, z) for j in (1, 2, 3)]
                                       for i in (1, 2, 3)], n)
            assert rank_one_residual(z) == max_minor(n)


def test_transverse_gate_sees_two_frames_swapped(monkeypatch, fresh_tables):
    # sigma_12 and sigma_13 swapped inside the nine-frame table: the (1, 2)
    # and (1, 3) circles read each other's residue, far past the gate
    z = 0.7j
    L2 = complex(completed_L(2.0))
    gate = 1e-6  # cli.TOLERANCES["transverse"]

    def worst():
        return max(abs(transverse_residue(i, j, z) - n_entry(i, j, z) / L2)
                   / abs(n_entry(i, j, z) / L2)
                   for i in (1, 2, 3) for j in (1, 2, 3))

    assert worst() <= gate
    swap = {(1, 2): (1, 3), (1, 3): (1, 2)}
    monkeypatch.setattr(gl3, "sigma", lambda i, j: sigma(*swap.get((i, j),
                                                                  (i, j))))
    fresh_tables()
    assert worst() > 1e3 * gate
