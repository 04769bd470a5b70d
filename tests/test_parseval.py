"""Contour-shift Parseval identities for GL(2) and GL(3)."""

import tracemalloc

import numpy as np
import pytest

from eisenspec import cli, gl3, intertwine, parseval
from eisenspec.contour import (circle_nodes, circle_residue, pole_factor,
                               trapezoid_circle)
from eisenspec.errors import DomainError
from eisenspec.parseval import (PaleyWienerGaussian, contribution_A,
                                contribution_B, contribution_C,
                                decomposed_norm_gl2, measure_constants,
                                parseval_check_gl3, shifted_norm_gl2,
                                shifted_norm_gl3)
from eisenspec.roots import RootDatum, WeylElement
from eisenspec.zeta import completed_L, ratio_L

GL2 = RootDatum(2)
GL3 = RootDatum(3)
EPS = np.finfo(np.float64).eps


def test_gl2_contour_independence():
    phi = PaleyWienerGaussian(GL2, 0.5)
    a = shifted_norm_gl2(phi, 1.5)
    b = shifted_norm_gl2(phi, 2.0)
    assert abs(a - b) <= 1e-8


def test_gl2_decomposition():
    phi = PaleyWienerGaussian(GL2, 0.5)
    shifted = shifted_norm_gl2(phi, 1.5)
    axis, residue = decomposed_norm_gl2(phi)
    assert abs(shifted - axis - residue) / abs(shifted) <= 1e-6
    # the residue term is |Phi(rho)|^2 / L(2) with rho at coordinate 1
    L2 = complex(completed_L(2.0)).real
    want = abs(phi.value(GL2.weight((1.0,)))) ** 2 / L2
    assert complex(residue).real == pytest.approx(want, rel=1e-13)


def test_gl2_profile_vanishing_at_rho():
    phi = PaleyWienerGaussian(GL2, 0.5, {(0,): -1.0, (1,): 1.0})  # z - 1
    shifted = shifted_norm_gl2(phi, 1.5)
    axis, residue = decomposed_norm_gl2(phi)
    assert residue == 0.0
    assert abs(shifted - axis) <= 1e-10


def test_gl2_axis_term_real_nonnegative_for_real_profile():
    phi = PaleyWienerGaussian(GL2, 0.6, {(0,): 0.4, (2,): 1.0})
    axis, _ = decomposed_norm_gl2(phi)
    assert abs(complex(axis).imag) <= 1e-12
    assert complex(axis).real >= 0.0


def test_gl2_seeded_profiles():
    rng = np.random.default_rng(42)
    for _ in range(5):
        phi = PaleyWienerGaussian.random(GL2, rng)
        shifted = shifted_norm_gl2(phi, 1.5)
        axis, residue = decomposed_norm_gl2(phi)
        assert abs(shifted - axis - residue) / abs(shifted) <= 1e-6


def test_shifted_norms_share_one_base_point_rule():
    # every coordinate >= 1.05 on both ranks.  Below it the pole
    # correction still holds the plane rule to rounding (1.0e-15 at sigma0
    # = 1.01 on GL(2), against sigma0 = 1.5), but it cancels a growing
    # multiple of the result: 2.1 there, 0.17 at 1.05
    phi2, phi3 = PaleyWienerGaussian(GL2, 0.5), PaleyWienerGaussian(GL3, 0.5)
    for sigma0 in (1.01, 1.0, 0.5, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            shifted_norm_gl2(phi2, sigma0)
    for lam0 in ((1.04, 1.5), (1.5, 1.0), (0.5, 2.0), (float("nan"), 1.5)):
        with pytest.raises(DomainError):
            shifted_norm_gl3(phi3, lam0)
    assert np.isfinite(shifted_norm_gl2(phi2, 1.05))
    assert np.isfinite(shifted_norm_gl3(phi3, (1.05, 1.05)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gl2_contribution_A_two_forms_agree(seed):
    # the W-sum on the axis and (1/2) integral |F|^2
    phi = PaleyWienerGaussian.random(GL2, np.random.default_rng(seed))
    direct, symmetric = contribution_A(phi)
    assert abs(direct - symmetric) <= 1e-13 * abs(direct)


def test_gl2_decomposition_is_A_and_C():
    phi = PaleyWienerGaussian.random(GL2, np.random.default_rng(3))
    assert decomposed_norm_gl2(phi) == (contribution_A(phi)[0],
                                        contribution_C(phi))


def test_gl2_contribution_C_closed_form():
    # |Phi(rho)|^2 / vol, with vol = L(2) on GL(2)
    phi = _random_quadratic(GL2, 0.5, 6)
    L2 = complex(completed_L(2.0)).real
    want = abs(phi.value(GL2.weight((1.0,)))) ** 2 / L2
    assert complex(contribution_C(phi)).real == pytest.approx(want, rel=1e-14)


def test_shifted_integral_refuses_rank_three():
    with pytest.raises(DomainError):
        contribution_A(PaleyWienerGaussian(RootDatum(4), 0.5))


@pytest.mark.parametrize("sigma0", [1.05, 1.3, 1.5])
def test_gl2_pole_correction_is_C_times_the_pole_factor(sigma0):
    # on GL(2) the pole line z = 1 is the point rho, whose residue is C
    phi = _random_quadratic(GL2, 0.5, 6)
    step = parseval._plane_window(phi.beta)[1]
    want = contribution_C(phi) * pole_factor(sigma0 - 1.0, step)
    got = parseval._plane_rule(phi, (sigma0,))[1]
    assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("beta", [0.35, 0.5, 0.8])
def test_corrected_shifted_norms_agree_down_to_the_base_point_rule(beta):
    # at 0.05 from a pole plane the uncorrected plane rule erred by 4%;
    # corrected, every base agrees with the base 1.5 (2.3e-14 measured)
    phi2, phi3 = (_random_quadratic(d, beta, 4) for d in (GL2, GL3))
    ref2 = shifted_norm_gl2(phi2, 1.5)
    assert abs(shifted_norm_gl2(phi2, 1.05) - ref2) <= 1e-13 * abs(ref2)
    ref3 = shifted_norm_gl3(phi3, (1.5, 1.5))
    for lam0 in ((1.051, 1.8), (1.05, 1.05)):
        assert abs(shifted_norm_gl3(phi3, lam0) - ref3) <= 1e-13 * abs(ref3)


def test_gl3_contour_independence():
    phi = PaleyWienerGaussian(GL3, 0.5)
    a = shifted_norm_gl3(phi, (1.5, 1.5))
    b = shifted_norm_gl3(phi, (1.3, 1.8))
    assert abs(a - b) / abs(a) <= 1e-6


def test_contribution_A_two_forms_agree():
    phi = PaleyWienerGaussian(GL3, 0.5)
    direct, symmetric = contribution_A(phi)
    assert abs(direct - symmetric) / abs(direct) <= 1e-6
    assert abs(complex(direct).imag) / abs(direct) <= 1e-10
    assert complex(symmetric).real >= 0.0


def test_contribution_B_two_forms_agree_and_positive():
    rng = np.random.default_rng(5)
    for _ in range(3):
        phi = PaleyWienerGaussian.random(GL3, rng)
        direct, factored = contribution_B(phi)
        assert abs(direct - factored) <= 1e-8 * max(1.0, abs(direct))
        assert complex(factored).real >= 0.0
        assert abs(complex(direct).imag) <= 1e-10 * max(1.0, abs(direct))


def test_contribution_C_closed_form():
    phi = PaleyWienerGaussian(GL3, 0.5)  # Q = 1
    # <rho, rho> = 2, so Phi(rho) = exp(2 beta) and C = exp(4 beta)/(L2 L3)
    L2 = complex(completed_L(2.0)).real
    L3 = complex(completed_L(3.0)).real
    want = np.exp(4.0 * 0.5) / (L2 * L3)
    assert complex(contribution_C(phi)).real == pytest.approx(want, rel=1e-13)
    phi0 = PaleyWienerGaussian(GL3, 0.5, {(1, 0): 1.0, (0, 0): -1.0})
    assert abs(contribution_C(phi0)) == 0.0


def test_profile_vanishing_on_lines_kills_B_and_C():
    # Q = (z1 - 1)(z2 - 1)(z1 + z2 - 1), expanded
    coeffs = {(2, 1): 1.0, (1, 2): 1.0, (2, 0): -1.0, (0, 2): -1.0,
              (1, 1): -3.0, (1, 0): 2.0, (0, 1): 2.0, (0, 0): -1.0}
    # verify the expansion against the product form on samples first
    rng = np.random.default_rng(1)
    phi = PaleyWienerGaussian(GL3, 0.5, coeffs)
    for _ in range(20):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        want = (z1 - 1) * (z2 - 1) * (z1 + z2 - 1) * np.exp(
            0.5 * (2.0 / 3.0) * (z1 * z1 + z1 * z2 + z2 * z2))
        assert complex(phi.value_coords(z1, z2)) == pytest.approx(want, rel=1e-12)
    b_direct, _ = contribution_B(phi)
    assert abs(b_direct) <= 1e-12
    assert abs(contribution_C(phi)) <= 1e-25
    shifted = shifted_norm_gl3(phi, (1.5, 1.5))
    a_direct, _ = contribution_A(phi)
    assert abs(shifted - a_direct) / abs(shifted) <= 1e-4


def test_measure_constants_are_unity():
    phi = PaleyWienerGaussian(GL3, 0.5)
    kb, kc = measure_constants(phi, contribution_B(phi)[0],
                               contribution_C(phi))
    assert kb == pytest.approx(1.0, abs=1e-9)
    assert kc == pytest.approx(1.0, abs=1e-9)


def test_rule_sized_circles_are_stable_under_node_doubling(monkeypatch,
                                                          fresh_r1):
    # the circles of kappa_C and the double residues, and the R1 circle of
    # every residue line: kappa_B and the pole correction at (1.05, 1.05),
    # where its factors are 0.19
    assert gl3.DOUBLE_CIRCLES == ((0.3, 32), (0.1, 34))
    assert parseval._RESIDUE_CIRCLE == (0.1, 16)
    phi = PaleyWienerGaussian.random(GL3, np.random.default_rng(5))
    b_direct, c = contribution_B(phi)[0], contribution_C(phi)

    def values():
        return [*measure_constants(phi, b_direct, c),
                *(v for _, _, v in gl3.double_residue_table()),
                parseval._plane_rule(phi, (1.05, 1.05))[1]]

    before = values()
    doubled = tuple((r, 2 * n) for r, n in gl3.DOUBLE_CIRCLES)
    monkeypatch.setattr(gl3, "DOUBLE_CIRCLES", doubled)
    monkeypatch.setattr(parseval, "DOUBLE_CIRCLES", doubled)
    radius, nodes = parseval._RESIDUE_CIRCLE
    monkeypatch.setattr(parseval, "_RESIDUE_CIRCLE", (radius, 2 * nodes))
    fresh_r1()  # R1 is cached per root datum, not per circle
    for a, b in zip(before, values()):
        assert abs(a - b) <= 1e-13 * abs(b)


def test_line_window_ends_short_of_the_first_zero():
    # on B's kernel and on the kappa_B residue lines a zero 1/2 + i gamma
    # of L(1 + s) reaches the t-axis at |t| = gamma; the widest line window,
    # at the smallest beta random profiles draw, ends short of gamma_1,
    # where the Gaussian exp(-(4 beta / 3) t^2) is below exp(-90).  The
    # pole of L at 1 is 1/2 off the axis, which sets the step
    gamma_1 = 14.134725141734693
    t, step = parseval._line_window(0.35)
    assert step == pytest.approx(2 * np.pi * 0.5 / (53 * np.log(2)),
                                 rel=1e-15)
    assert t.max() < gamma_1 - 4.0
    assert 4.0 * 0.35 / 3.0 * gamma_1 ** 2 > 90.0


def _window_integrals(beta):
    """The shifted norms, A, B and kappa_B of degree-2 profiles at beta, on
    the windows that parseval.gaussian_width derives."""
    gl2_phi, gl3_phi = (_random_quadratic(d, beta, 3) for d in (GL2, GL3))
    b_direct = contribution_B(gl3_phi)[0]
    return [shifted_norm_gl2(gl2_phi, 1.5), *contribution_A(gl2_phi),
            shifted_norm_gl3(gl3_phi, (1.5, 1.5)),
            shifted_norm_gl3(gl3_phi, (1.3, 1.8)),
            *contribution_A(gl3_phi), *contribution_B(gl3_phi),
            measure_constants(gl3_phi, b_direct,
                              contribution_C(gl3_phi))[0]]


@pytest.mark.parametrize("beta", [0.35, 0.8])
def test_derived_windows_agree_with_windows_of_twice_the_exponent(
        beta, monkeypatch):
    # the windows put the integrand's Gaussian at exp(-44) on their edge;
    # at exp(-88) every integral agrees to 1e-13 relative (3.2e-15 measured)
    derived = _window_integrals(beta)
    monkeypatch.setattr(parseval, "gaussian_width",
                        lambda rate: np.sqrt(88.0 / rate))
    wide = _window_integrals(beta)
    for a, b in zip(derived, wide):
        assert abs(a - b) <= 1e-13 * abs(b)
    # at exp(-30) the GL(3) A is cut visibly (1.4e-11 and 8.7e-12 measured)
    a_wide = wide[5]  # contribution_A(gl3_phi)[0] of _window_integrals
    monkeypatch.setattr(parseval, "gaussian_width",
                        lambda rate: np.sqrt(30.0 / rate))
    a_cut = contribution_A(_random_quadratic(GL3, beta, 3))[0]
    assert abs(a_cut - a_wide) > 1e-12 * abs(a_wide)


def _random_quadratic(datum, beta, seed):
    rng = np.random.default_rng(seed)
    coeffs = {e: complex(*rng.uniform(-1, 1, 2))
              for e in np.ndindex(*(3,) * datum.rank) if sum(e) <= 2}
    return PaleyWienerGaussian(datum, beta, coeffs)


def _componentwise_scale(phi, coords):
    """|exp(beta <lam, lam>)| times sum_e |c_e| prod_k |lam_k|^e_k, the
    scale that rounding in the evaluation of Phi(lam) is relative to."""
    gauss = np.abs(PaleyWienerGaussian(phi.datum, phi.beta).value_coords(
        *coords))
    poly = sum(abs(c) * np.prod([np.abs(coords[k]) ** e
                                 for k, e in enumerate(expo)], axis=0)
               for expo, c in phi.poly_coeffs.items())
    return gauss * poly


@pytest.mark.parametrize("grid", ["plane", "residue-line", "double-circle",
                                  "gl2-line"])
def test_grid_profiles_match_the_pointwise_oracle(grid):
    # Phi(lam) and Phi*(-w lam) of the shifted integrand against
    # value_coords at each grid point, on the widest windows
    beta = 0.35
    line = 1j * parseval._line_window(beta)[0]
    plane = 1j * parseval._plane_window(beta)[0]
    ws, base, x_dir, x, y_dir, y = {
        "plane": (gl3.named_weyl().values(), GL3.weight((1.3, 1.8)),
                  GL3.fundamental_weight(1), plane,
                  GL3.fundamental_weight(2), plane),
        "residue-line": ([(gl3.sigma(2, j), (gl3.line_root(2),))
                          for j in (1, 2, 3)], gl3.delta_weight(2),
                         gl3.line_direction(2), line, None, None),
        "double-circle": ([gl3.named_weyl()["s3"]], GL3.rho(),
                          GL3.fundamental_weight(2), circle_nodes(0.3, 32),
                          GL3.fundamental_weight(1), circle_nodes(0.1, 34)),
        "gl2-line": (GL2.weyl_group(), GL2.weight((1.5,)),
                     GL2.fundamental_weight(1), plane, None, None),
    }[grid]
    datum = base.datum
    grids = [(x_dir, x)] if y is None else [(x_dir, x[:, None]),
                                            (y_dir, y[None, :])]
    coords = np.broadcast_arrays(*(
        complex(base.coeffs[k]) + sum(complex(d.coeffs[k]) * g
                                      for d, g in grids)
        for k in range(datum.rank)))
    # the default profile's exponent tuple () is shorter than the rank.  At
    # the plane's corners |beta <lam, lam>| reaches 180, and rounding in
    # value_coords' own exponent sets most of the error there (up to 8.5e-14
    # against a 40-digit reference, where the grid's is up to 4e-14)
    for phi in (PaleyWienerGaussian(datum, beta),
                _random_quadratic(datum, beta, 11)):
        star = phi.star()
        pairs = [(phi, coords)]
        pairs += [(star, w.act_coords(*(-c for c in coords)))
                  for w in (w[0] if isinstance(w, tuple) else w for w in ws)]
        triples = list(parseval._shifted_integrand(phi, ws, base, x_dir, x,
                                                   y_dir, y))
        got = [triples[0][1]] + [image for _, _, image in triples]
        for value, (profile, at) in zip(got, pairs):
            want = profile.value_coords(*at)
            err = np.abs(np.broadcast_to(value, want.shape) - want)
            assert np.max(err / _componentwise_scale(profile, at)) <= 1e-13


@pytest.mark.parametrize("beta", [0.35, 0.8])
def test_line_step_is_stable_under_halving(monkeypatch, beta):
    phi = _random_quadratic(GL3, beta, 7)
    c = contribution_C(phi)

    def line_values():
        b_direct, b_factored = contribution_B(phi)
        kappa_b, _ = measure_constants(phi, b_direct, c)
        return [b_direct, b_factored, kappa_b]

    before = line_values()
    monkeypatch.setattr(parseval, "_LINE_STEP", parseval._LINE_STEP / 2)
    after = line_values()
    for a, b in zip(before, after):
        assert abs(a - b) <= 1e-13 * abs(b)


@pytest.mark.parametrize("beta", [0.35, 0.8])
def test_kappa_b_sees_the_line_step(monkeypatch, beta):
    # the pickup sums on the half steps of B's nodes, so their trapezoid
    # errors do not cancel in kappa_B: at step 0.5 |kappa_B - 1| leaves the
    # gate that the default step keeps it far inside
    phi = _random_quadratic(GL3, beta, 7)
    c = contribution_C(phi)
    monkeypatch.setattr(parseval, "_LINE_STEP", 0.5)
    kappa_b, _ = measure_constants(phi, contribution_B(phi)[0], c)
    assert abs(kappa_b - 1.0) > cli.TOLERANCES["kappa-spread"]


@pytest.mark.parametrize("seed", range(4))
def test_contribution_A_sees_a_coarse_plane_step(monkeypatch, seed):
    # A's imaginary plane has its nearest poles at distance 1, so the plane
    # step line_step(1.0) agrees with its half to rounding (<= 5.1e-15
    # measured), while 1.3 times it errs by 1.2e-11 to 1.8e-11: a check
    # whose floor does not grow with the base, as parseval-gl3's does
    phi = PaleyWienerGaussian.random(GL3, np.random.default_rng(seed))
    step = parseval._PLANE_STEP
    a = {}
    for factor in (1.0, 0.5, 1.3):
        monkeypatch.setattr(parseval, "_PLANE_STEP", factor * step)
        a[factor] = contribution_A(phi)[0]
    assert abs(a[0.5] - a[1.0]) <= 1e-12 * abs(a[1.0])
    assert abs(a[1.3] - a[1.0]) > 1e-12 * abs(a[1.0])


def test_pickup_terms_in_one_call_match_per_line_calls():
    # Phi(lam) and the Gaussian, formed once per frame, and m(w, lam) on
    # the nine (sigma_ij, line i) residue lines, against three one-line
    # calls
    phi = _random_quadratic(GL3, 0.5, 4)
    x = 1j * (parseval._LINE_STEP * (np.arange(-30, 30) + 0.5))
    r1 = parseval._ratio_residue(GL3)
    lines = [i for i in (1, 2, 3) for _ in (1, 2, 3)]
    terms = [(gl3.sigma(i, j), (gl3.line_root(i),))
             for i in (1, 2, 3) for j in (1, 2, 3)]
    got = parseval._residue_line(
        phi, r1, terms, [gl3.delta_weight(i) for i in lines],
        [gl3.line_direction(i) for i in lines], x, None, None)
    for k, i in zip((0, 3, 6), (1, 2, 3)):
        want = parseval._residue_line(
            phi, r1, terms[k:k + 3], gl3.delta_weight(i),
            gl3.line_direction(i), x, None, None)
        assert np.array_equal(got[k:k + 3], want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_residue_line_matches_the_circle_form(seed):
    # the factored residue, R1 times the integrand with the pole root's
    # factor left out, against a transverse circle of the full integrand:
    # this holds that the pole is simple with residue R1 on the correction
    # lines z_k = 1 at (1.3, 1.8) and on the kappa_B lines (3.7e-15
    # measured)
    phi = PaleyWienerGaussian.random(GL3, np.random.default_rng(seed))
    r1 = parseval._ratio_residue(GL3)
    x = 1j * parseval._LINE_STEP * np.arange(-40, 41)
    w1, w2 = GL3.fundamental_weight(1), GL3.fundamental_weight(2)
    frames = [(GL3.weight((1.0, 1.8)), w2, w1, (1, 2)),
              (GL3.weight((1.3, 1.0)), w1, w2, (2, 3))]
    frames += [(gl3.delta_weight(i), gl3.line_direction(i),
                gl3.delta_weight(i), gl3.line_root(i))
               for i in (1, 2, 3)]
    for base, x_dir, u_dir, root in frames:
        ws = [w for w in GL3.weyl_group() if root in w.inversions()]
        got = parseval._residue_line(phi, r1, [(w, (root,)) for w in ws],
                                     base, x_dir, x, None, None)
        want = circle_residue(lambda u: np.stack([
            m * phi_vals * image for m, phi_vals, image in
            parseval._shifted_integrand(phi, ws, base, x_dir, x, u_dir, u)]),
            trapezoid_circle(0.1, 0.7))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _term_by_term(terms, lines, size):
    """The term-by-term expansion of sum over (e, coeff) of coeff prod_k
    (a_k + b_k x + c_k y)^(e_k) into a (size, size) matrix, lines[k] =
    (a_k, b_k, c_k): the oracle of the monomial tables."""
    poly = np.zeros((size, size), dtype=np.complex128)
    for expo, coeff in terms:
        term = {(0, 0): complex(coeff)}
        for (a, b, c), e in zip(lines, expo):
            for _ in range(e):
                product = {}
                for (p, q), v in term.items():
                    for key, f in (((p, q), a), ((p + 1, q), b),
                                   ((p, q + 1), c)):
                        if f:
                            product[key] = product.get(key, 0.0) + v * f
                term = product
        for (p, q), v in term.items():
            poly[p, q] += v
    return poly


@pytest.mark.parametrize("seed", range(4))
def test_monomial_tables_match_the_term_by_term_expansion(seed):
    # Q and <lam, lam> as sums of cached tables against the expansion term
    # by term, on random complex lines and on the Weyl images of a kappa_B
    # line's exact frame, to a few ulp of the expansion in absolute values
    # (1.8 ulp at worst over 20 seeds, measured)
    rng = np.random.default_rng(seed)
    frame = (gl3.delta_weight(2), gl3.line_direction(2), GL3.weight((0, 0)))
    for datum in (GL2, GL3):
        phi = PaleyWienerGaussian.random(datum, rng)
        gram = [(tuple((k == i) + (k == j) for k in range(datum.rank)), g)
                for i, row in enumerate(datum.gram_fw)
                for j, g in enumerate(row)]
        size = 3
        index = parseval._monomials(datum.rank, size)
        lines = [tuple(tuple(complex(*rng.uniform(-3, 3, 2))
                             for _ in range(3)) for _ in range(datum.rank))
                 for _ in range(3)]
        if datum is GL3:
            lines += [parseval._frame_lines(frame, w)
                      for w in (None, *GL3.weyl_group())]
        for line in lines:
            tables = parseval._tables(line, size)
            magnitudes = tuple(tuple(abs(v) for v in k) for k in line)
            for terms, coeffs in (
                    (list(phi.poly_coeffs.items()),
                     parseval._coefficients(phi.poly_coeffs, index)),
                    (gram, parseval._gram_coefficients(datum, size))):
                got = parseval._affine_poly(coeffs, tables)
                want = _term_by_term(terms, line, size)
                scale = _term_by_term([(e, abs(c)) for e, c in terms],
                                      magnitudes, size).real
                assert np.all(np.abs(got - want) <= 4 * EPS * scale)


def _spectral_op(phi):
    return parseval_check_gl3(phi, (1.5, 1.5), (1.3, 1.8))


def test_cached_lines_are_the_weyl_action(monkeypatch):
    # every (frame, w) of a spectral op: the lines its cached tables were
    # built from are the frame's coordinates and their images under
    # w.act_coords, exactly
    frames = set()
    cached = parseval._frame_tables

    def recording(frame, size):
        frames.add(frame)
        return cached(frame, size)

    monkeypatch.setattr(parseval, "_frame_tables", recording)
    _spectral_op(_random_quadratic(GL3, 0.5, 12))
    assert len(frames) >= 10
    for frame in frames:
        tables = cached(frame, 3)
        images = {None: [d.coeffs for d in frame]}
        images.update({w.perm: [w.act_coords(*(-c for c in d.coeffs))
                                for d in frame] for w in GL3.weyl_group()})
        assert tables.keys() == images.keys()
        for key, coords in images.items():
            want = tuple(zip(*(map(complex, c) for c in coords)))
            assert tables[key][0] == want


def test_second_check_makes_no_weyl_action(monkeypatch):
    # a second spectral op, on a new profile at the same bases, finds every
    # frame's lines and tables cached
    _spectral_op(_random_quadratic(GL3, 0.5, 13))
    calls = []
    act_coords = WeylElement.act_coords

    def counting(self, *coords):
        calls.append(self)
        return act_coords(self, *coords)

    monkeypatch.setattr(WeylElement, "act_coords", counting)
    _spectral_op(_random_quadratic(GL3, 0.7, 14))
    assert calls == []
    parseval._frame_tables.cache_clear()
    _spectral_op(_random_quadratic(GL3, 0.7, 14))
    assert len(calls) > 0


def test_shifted_norm_peak_memory():
    # at most 8.5 complex arrays of the plane grid's size at once
    phi = _random_quadratic(GL3, 0.35, 3)
    n = parseval._plane_window(phi.beta)[0].size
    shifted_norm_gl3(phi, (1.5, 1.5))  # warm the caches
    tracemalloc.start()
    try:
        shifted_norm_gl3(phi, (1.5, 1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.5 * 16 * n * n


def test_measure_constants_one_ratio_call_per_distinct_argument(monkeypatch):
    calls = []

    def counting(z, plus=None):
        calls.append(plus is not None)
        return ratio_L(z, plus)

    phi = PaleyWienerGaussian(GL3, 0.6)
    b_direct, c = contribution_B(phi)[0], contribution_C(phi)
    parseval._ratio_residue(GL3)  # once per datum
    monkeypatch.setattr(intertwine, "ratio_L", counting)
    measure_constants(phi, b_direct, c)
    # the pickup's rows +-1/2 +- it in one stacked call, whose points
    # ratio_L takes once up to conjugation; at rho z1 and z2 lie on one circle
    # each, one stacked call for both, and z1 + z2 is a separable grid.
    # R1's circle is cached per root datum
    assert len(calls) == 3
    assert sum(calls) == 1


def test_contour_planes_three_ratio_calls_on_lines(monkeypatch,
                                                   kernel_points):
    calls = []

    def counting(z, plus=None):
        calls.append(plus is None)
        return ratio_L(z, plus)

    parseval._ratio_residue(GL3)  # once per datum
    monkeypatch.setattr(intertwine, "ratio_L", counting)
    phi = PaleyWienerGaussian(GL3, 0.6)
    n = parseval._plane_window(phi.beta)[0].size
    half = n - n // 2  # t >= 0 on the window, symmetric in t
    # the z1 + z2 lattice and one stacked call on the rows, never the n x n
    # grid.  Window and bases are conjugation symmetric, so the kernel sees
    # the lattice's n distinct points up to conjugation and the rows'
    # upper halves: z1, z2 and the correction lines' 1 + z_other, four
    # rows at (1.3, 1.8), whose corner factor is below 2^-53.  At (1.5,
    # 1.5) z1 and z2 are one row, so are the two lines', and the corner
    # rho rides the stacked call as its one point ratio_L(2).  On A's base
    # z1 and z2 are one row, it
    for run, rows in ((lambda: shifted_norm_gl3(phi, (1.3, 1.8)), 4 * half),
                      (lambda: shifted_norm_gl3(phi, (1.5, 1.5)),
                       2 * half + 1),
                      (lambda: contribution_A(phi), half)):
        calls.clear()
        kernel_points.clear()
        run()
        assert calls == [True, True]
        assert kernel_points == [2 * n, 2 * rows]


def test_parseval_check_computes_B_and_C_once(monkeypatch):
    calls = {"B": 0, "C": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(parseval, "contribution_B",
                        counted("B", parseval.contribution_B))
    monkeypatch.setattr(parseval, "contribution_C",
                        counted("C", parseval.contribution_C))
    parseval_check_gl3(PaleyWienerGaussian(GL3, 0.6), (1.5, 1.5), (1.3, 1.8))
    assert calls == {"B": 1, "C": 1}


def test_measure_constants_rejects_a_vanishing_B():
    phi = PaleyWienerGaussian(GL3, 0.6)
    with pytest.raises(DomainError):
        measure_constants(phi, 1e-13, contribution_C(phi))


def test_parseval_gl3_full_report():
    rng = np.random.default_rng(123)
    phi = PaleyWienerGaussian.random(GL3, rng)
    rep = parseval_check_gl3(phi, (1.5, 1.5), (1.3, 1.8))
    assert rep.residual_rel <= 1e-4
    assert abs(rep.shifted_alt - rep.shifted) / abs(rep.shifted) <= 1e-6
    assert abs(rep.kappa_B - 1.0) <= 1e-8
    assert abs(rep.kappa_C - 1.0) <= 1e-8


def test_identity_term_isolation():
    # the identity term of the shifted sum is the plain pairing
    # integral of Phi(lam) Phi*(-lam), quadratured independently here, on
    # half the plane step and the window of twice the exponent
    phi = PaleyWienerGaussian(GL3, 0.5, {(0, 0): 0.7, (1, 1): 0.3j})
    lam0 = (1.5, 1.5)
    assert GL3.weyl_group()[0] == GL3.identity()
    scale, terms = parseval._plane_terms(phi, lam0, [])
    m, phi_vals, image = next(terms)
    assert np.all(m == 1.0)
    term = complex(np.sum(m * phi_vals * image)) * scale
    star = phi.star()
    step, width = parseval._PLANE_STEP / 2.0, np.sqrt(88.0 / phi.beta)
    n = int(np.ceil(width / step))
    t = step * np.arange(-n, n + 1)
    z1 = (lam0[0] + 1j * t)[:, None]
    z2 = (lam0[1] + 1j * t)[None, :]
    direct = np.sum(phi.value_coords(z1, z2)
                    * star.value_coords(-z1, -z2)) * (step / (2 * np.pi)) ** 2
    assert term == pytest.approx(complex(direct), rel=1e-13)


def test_weyl_antisymmetric_profile_sign_bookkeeping():
    # Q = z1 + z2 is antisymmetric under the longest element, whose action
    # sends (z1, z2) to (-z2, -z1); on the axis the longest-element
    # integrand then equals minus m * |Phi|^2 pointwise, while the
    # identity integrand stays |Phi|^2
    from eisenspec.intertwine import m_scalar
    phi = PaleyWienerGaussian(GL3, 0.5, {(1, 0): 1.0, (0, 1): 1.0})
    s1, s2 = GL3.simple_reflection(1), GL3.simple_reflection(2)
    s3 = s1 * s2 * s1
    rng = np.random.default_rng(8)
    for _ in range(10):
        lam = GL3.weight((1j * rng.uniform(-3, 3), 1j * rng.uniform(-3, 3)))
        v = phi.value(lam)
        v_flip = phi.value(s3.act(lam))
        assert v_flip == pytest.approx(-v, rel=1e-13)
        ident_term = v * complex(v).conjugate()
        s3_term = m_scalar(s3, lam) * v * complex(v_flip).conjugate()
        assert s3_term == pytest.approx(-m_scalar(s3, lam) * ident_term,
                                        rel=1e-12)


def test_narrower_finer_plane_window_agrees(monkeypatch):
    # a narrower, finer window (W = 8, step 0.05) agrees with the plane
    # window W = gaussian_width(beta) = sqrt(44/beta) = 9.4, step
    # line_step(1.0) = 0.171, each with its own pole correction (up to
    # 7.8e-16 apart measured)
    phi = PaleyWienerGaussian(GL2, 0.5)
    bases = (1.5, 1.05)
    derived = [shifted_norm_gl2(phi, sigma0) for sigma0 in bases]
    monkeypatch.setattr(parseval, "_plane_window",
                        lambda beta: (0.05 * np.arange(-160, 161), 0.05))
    for sigma0, b in zip(bases, derived):
        assert abs(shifted_norm_gl2(phi, sigma0) - b) <= 1e-13 * abs(b)


def test_paley_wiener_star_is_conjugate_on_real_points():
    phi = PaleyWienerGaussian(GL3, 0.4, {(1, 0): 1.0 + 2.0j, (0, 0): 0.3j})
    star = phi.star()
    lam = GL3.weight((0.7, -0.2))
    assert star.value(lam) == pytest.approx(
        complex(phi.value(lam)).conjugate(), rel=1e-14)
