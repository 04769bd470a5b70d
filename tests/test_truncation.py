"""Eisenstein series, truncation, fundamental-domain quadrature, rank-one
inner-product formula."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaincc, kv

from eisenspec import cli, truncation
from eisenspec.contour import line_step
from eisenspec.errors import DomainError, PoleProximity
from eisenspec.truncation import (DECAY_CUTOFF, QuadratureSpec,
                                  TruncationParam, _lattice_pairs,
                                  _upper_gamma, constant_term,
                                  eisenstein_direct, eisenstein_fourier,
                                  eisenstein_tail_bound, eisenstein_theta,
                                  inner_product_fd, maass_selberg_record,
                                  omega_rank1, truncated_eisenstein)
from eisenspec.zeta import completed_L, ratio_L, zeta

VOL_D = 1.0471975511965976  # pi/3, from the arc integral

# points (x, y) outside H, each refused by every point evaluator of E
_OUTSIDE_H = [(0.0, -1.0), (0.0, 0.0), (0.0, np.array([1.0, 0.0])),
              (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
              (math.inf, 1.0), (-math.inf, 1.0)]


def test_params_validation():
    for check in (eisenstein_direct, eisenstein_tail_bound):
        with pytest.raises(DomainError):
            check(0.0, 1.0, 0.9, 400)
        with pytest.raises(DomainError):
            check(0.0, 1.0, 1.5, 2)
        for x, y in _OUTSIDE_H:
            with pytest.raises(DomainError):
                check(x, y, 1.5, 10)
    for T in (-0.5, math.nan):
        with pytest.raises(DomainError):
            TruncationParam(T)
    # the region split of the rule over D sits above the arc's top y = 1
    for y_split in (1.0, math.nan):
        with pytest.raises(DomainError):
            QuadratureSpec(y_split=y_split)
    # a cut line at the decay cutoff, above which the evaluator returns 0
    with pytest.raises(DomainError):
        truncated_eisenstein(1.5, TruncationParam(math.log(DECAY_CUTOFF)))


def test_direct_sum_matches_theta_within_tail():
    direct = eisenstein_direct(0.0, 1.0, 2.0, 2000)
    exact = eisenstein_theta(0.0, 1.0, 2.0)
    bound = eisenstein_tail_bound(0.0, 1.0, 2.0, 2000)
    assert abs(direct - exact) <= bound
    assert bound < 1e-5


def test_direct_sum_and_theta_agree_on_a_cloud():
    # 20 seeded points of D below y = 2
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.5, 0.5, 20)
    floor = np.sqrt(1.0 - x * x)
    y = floor + (2.0 - floor) * rng.uniform(0.0, 1.0, 20)
    for s in (1.3, 2.0):
        bound = eisenstein_tail_bound(x, y, s, 400)
        gap = np.abs(eisenstein_direct(x, y, s, 400) - eisenstein_theta(x, y, s))
        assert np.all(gap <= bound)
        pointwise = [eisenstein_tail_bound(a, b, s, 400) for a, b in zip(x, y)]
        assert np.array_equal(bound, pointwise)


def test_direct_sum_translation_invariance():
    x, y = np.array([0.3, -0.7]), np.array([1.2, 1.2])  # z1 and z1 - 1
    e = eisenstein_direct(x, y, 1.5, 600)
    tol = np.sum(eisenstein_tail_bound(x, y, 1.5, 600))
    assert abs(e[0] - e[1]) <= tol


def test_direct_sum_inversion_invariance():
    z = 0.3 + 1.2j
    w = -1.0 / z
    x, y = np.array([z.real, w.real]), np.array([z.imag, w.imag])
    e = eisenstein_direct(x, y, 1.5, 600)
    tol = np.sum(eisenstein_tail_bound(x, y, 1.5, 600))
    assert abs(e[0] - e[1]) <= tol


def test_theta_evaluator_modular_invariance():
    for (x, y) in ((0.3, 1.2), (0.13, 0.9), (-0.41, 2.4)):
        e = eisenstein_theta(x, y, 1.5)
        r2 = x * x + y * y
        assert eisenstein_theta(-x / r2, y / r2, 1.5) == pytest.approx(e, rel=1e-12)
        assert eisenstein_theta(x + 1.0, y, 1.5) == pytest.approx(e, rel=1e-12)


def test_theta_evaluator_domain():
    with pytest.raises(DomainError):
        eisenstein_theta(0.0, 1.0, 1.0)
    for x, y in _OUTSIDE_H:
        with pytest.raises(DomainError):
            eisenstein_theta(x, y, 1.5)
    empty = eisenstein_theta(np.array([]), np.array([]), 1.5)
    assert empty.shape == (0,)


def _theta_by_pair_loop(x, y, s):
    # the per-pair loop the one-sweep sum replaced, kept as its reference
    q_cut, total, r2 = 38.0 / math.pi, np.zeros(x.shape), x * x + y * y
    for m, n in _lattice_pairs(x.min(), x.max(), y.min(), y.max(), q_cut):
        q = (m * m * r2 + 2.0 * m * n * x + n * n) / y
        mask = q <= q_cut
        if np.any(mask):
            a = math.pi * q[mask]
            total[mask] += (a ** (-s) * _upper_gamma(s, a)
                            + a ** (s - 1.0) * _upper_gamma(1.0 - s, a))
    star = 0.5 / (s - 1.0) - 0.5 / s + total
    return star * math.pi ** s / (math.gamma(s) * float(np.real(zeta(2.0 * s))))


@pytest.mark.parametrize("s", [1.05, 1.3, 2.0, 2.7])
def test_theta_sweep_matches_the_pair_loop_and_not_the_batch(s):
    # bit for bit: the same Q expression, the same terms, each point's
    # terms added in pair order from 0; a point alone sees fewer pairs,
    # but the extra ones lie beyond its cutoff and add nothing
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 0.5, 300)
    y = rng.uniform(0.87, 11.9, 300)
    values = eisenstein_theta(x, y, s)
    assert np.array_equal(values, _theta_by_pair_loop(x, y, s))
    for k in rng.choice(x.size, 25, replace=False):
        assert eisenstein_theta(x[k], y[k], s) == values[k]
    grid = eisenstein_theta(x[:200].reshape(10, 20), y[:200].reshape(10, 20), s)
    assert np.array_equal(grid.ravel(), values[:200])


def test_theta_is_two_incomplete_gamma_calls(monkeypatch):
    # one call at s and one at 2 - s (reached by the recurrence from 1 - s),
    # however many lattice pairs the batch needs
    calls = []
    monkeypatch.setattr(truncation, "gammaincc",
                        lambda a, x: calls.append(a) or gammaincc(a, x))
    for y in (1.5, np.linspace(0.87, 11.9, 50)):
        calls.clear()
        eisenstein_theta(0.25, y, 1.5)
        assert calls == [1.5, 0.5]


def _cloud(seed, n, y_top):
    """n seeded points of D below y_top, uniform in hyperbolic area."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, n)
    return x, 1.0 / rng.uniform(1.0 / y_top, 1.0 / np.sqrt(1.0 - x * x))


@pytest.mark.parametrize("s", [1.05, 1.3, 2.0, 2.7])
def test_fourier_does_not_depend_on_the_batch(s):
    # bit for bit: each point forms only its own N(y) terms and adds them
    # in n order from 0; the batch reaches below D, where the table grows
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 0.5, 300)
    y = rng.uniform(0.3, 11.9, 300)
    values = eisenstein_fourier(x, y, s)
    for k in rng.choice(x.size, 25, replace=False):
        assert eisenstein_fourier(x[k], y[k], s) == values[k]
    grid = eisenstein_fourier(x[:200].reshape(10, 20),
                              y[:200].reshape(10, 20), s)
    assert np.array_equal(grid.ravel(), values[:200])
    assert np.array_equal(eisenstein_fourier(x[y > 0.9], y[y > 0.9], s),
                          values[y > 0.9])


def test_bessel_series_takes_kv_once_per_distinct_height(monkeypatch):
    # the x-nodes of a top panel's row share one height: K_{s-1/2} is taken
    # once per distinct (y, n), and every point is still its one-point
    # value bit for bit
    rng = np.random.default_rng(13)
    x = rng.uniform(-0.5, 0.5, 240)
    y = np.repeat(rng.uniform(0.3, 11.9, 12), 20)
    series = truncation._bessel_series(1.3)
    sizes = []

    def counting_kv(nu, arg, _kv=truncation.kv):
        sizes.append(np.size(arg))
        return _kv(nu, arg)

    monkeypatch.setattr(truncation, "kv", counting_kv)
    values = series(x, y)
    assert sizes == [int(truncation._bessel_terms(np.unique(y)).sum())]
    for k in range(x.size):
        assert series(x[k:k + 1], y[k:k + 1])[0] == values[k]


def test_fourier_within_the_direct_tail_bound():
    # the direct sum uses neither c(s) nor K
    x, y = _cloud(7, 20, 2.0)
    for s in (1.3, 2.0):
        gap = np.abs(eisenstein_direct(x, y, s, 400)
                     - eisenstein_fourier(x, y, s))
        assert np.all(gap <= eisenstein_tail_bound(x, y, s, 400))


def test_fourier_matches_theta_to_the_cli_gate():
    x, y = _cloud(3, 300, DECAY_CUTOFF)
    for s in (1.05, 1.2, 1.5, 1.75, 2.0):
        theta = eisenstein_theta(x, y, s)
        gap = np.abs(eisenstein_fourier(x, y, s) - theta) / np.abs(theta)
        assert np.max(gap) <= cli.TOLERANCES["fourier-theta"]


def test_fourier_domain():
    for s in (1.0, 0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            eisenstein_fourier(0.0, 1.0, s)
    truncated = truncated_eisenstein(1.5, TruncationParam(1.0))
    for x, y in _OUTSIDE_H:
        with pytest.raises(DomainError):
            eisenstein_fourier(x, y, 1.5)
        with pytest.raises(DomainError):
            truncated(x, y)
    empty = eisenstein_fourier(np.array([]), np.array([]), 1.5)
    assert empty.shape == (0,) and isinstance(
        eisenstein_fourier(0.1, 1.2, 1.5), float)


def test_truncation_adds_the_constant_term_only_below_the_line():
    # above y0 Lambda^T E is the Bessel sum itself, nothing subtracted;
    # below it, E by the Fourier route, both to the bit
    trunc = TruncationParam(0.5)
    x, y = _cloud(5, 400, DECAY_CUTOFF)
    for s in (1.1, 1.4):
        got = truncated_eisenstein(s, trunc)(x, y)
        high = y > trunc.y0
        assert 0 < high.sum() < y.size
        assert np.array_equal(got[high],
                              truncation._bessel_series(s)(x[high], y[high]))
        assert np.array_equal(got[~high], eisenstein_fourier(x[~high],
                                                             y[~high], s))


def test_record_reports_the_tail_at_the_floor_of_D():
    # D's lowest point y = sqrt(3)/2 keeps N = ceil(1 / line_step(y)) + 1
    # = 8 terms; the terms past N, summed with |cos| = 1, lie below the
    # reported bound, and those past N - 1 above it
    y = math.sqrt(3.0) / 2.0
    n = math.ceil(1.0 / line_step(y)) + 1
    assert n == 8 == truncation._bessel_terms(y)

    def dropped(s, kept):
        total = 0.0
        for m in range(kept + 1, kept + 40):
            sigma = sum(d ** (1.0 - 2.0 * s) for d in range(1, m + 1)
                        if m % d == 0)
            total += m ** (s - 0.5) * sigma * kv(s - 0.5, 2 * math.pi * m * y)
        return 4.0 * math.sqrt(y) * total / float(np.real(completed_L(2 * s)))

    rec = maass_selberg_record(1.2, 1.3, 1.0)
    assert max(dropped(s, n) for s in (1.2, 1.3)) <= rec["tail_bound"] \
        < min(dropped(s, n - 1) for s in (1.2, 1.3))


def test_constant_term_is_x_average():
    nodes, weights = np.polynomial.legendre.leggauss(64)
    xs = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    for (y, s) in ((3.0, 1.4), (2.0, 1.2)):
        avg = float(np.sum(eisenstein_theta(xs, np.full_like(xs, y), s) * ws))
        assert abs(avg - complex(constant_term(y, s))) <= 1e-6


def test_constant_term_real_for_real_s():
    v = complex(constant_term(2.5, 1.3))
    assert abs(v.imag) < 1e-14


def test_constant_term_matches_ratio_substitution():
    # c(s) = L(2s-1)/L(2s) is ratio_L at 2s-1
    s, y = 1.35, 4.0
    c = complex(ratio_L(2 * s - 1.0))
    want = y ** s + c * y ** (1.0 - s)
    assert complex(constant_term(y, s)) == pytest.approx(want, rel=1e-14)


def test_constant_term_pole_guard():
    with pytest.raises(PoleProximity):
        constant_term(2.0, 1.0)
    for y in (y for x, y in _OUTSIDE_H if x == 0.0):
        with pytest.raises(DomainError):
            constant_term(y, 1.5)


def test_truncate_below_line_is_eisenstein():
    trunc = TruncationParam(1.0)  # y0 = e > 1.5
    assert float(truncated_eisenstein(1.5, trunc)(0.2, 1.5)) == pytest.approx(
        eisenstein_theta(0.2, 1.5, 1.5), rel=1e-14)


def test_truncate_above_line_subtracts_constant_term():
    trunc = TruncationParam(0.5)
    y = 10.0 * trunc.y0
    got = float(truncated_eisenstein(1.5, trunc)(0.0, y))
    want = eisenstein_theta(0.0, y, 1.5) - complex(constant_term(y, 1.5))
    assert got == pytest.approx(want, abs=1e-12)
    assert abs(got) < 1e-8  # rapidly decreasing


def test_truncate_against_direct_sum_oracle():
    # independent oracle: direct lattice sum minus the constant term,
    # trusted to within its certified tail bound
    trunc = TruncationParam(0.5)
    x, y = 0.1, 1.2 * trunc.y0
    oracle = (eisenstein_direct(x, y, 1.5, 2000)
              - complex(constant_term(y, 1.5)))
    got = truncated_eisenstein(1.5, trunc)(x, y)
    assert abs(got - oracle) <= eisenstein_tail_bound(x, y, 1.5, 2000)


def test_truncated_series_rapid_decay():
    trunc = TruncationParam(0.5)
    f = truncated_eisenstein(1.5, trunc)
    ys = np.array([1.8, 2.4, 3.0, 3.6, 4.2])
    vals = np.abs(f(np.zeros_like(ys), ys))
    # the tail is dominated by exp(-2 pi y): each 0.6 step shrinks by ~0.02
    ratios = vals[1:] / vals[:-1]
    assert np.all(ratios < 0.05)
    # beats any fixed power of y
    weighted = vals * ys ** 10
    assert np.all(weighted[1:] < weighted[:-1])


def test_inner_product_volume():
    one = lambda x, y: np.ones(np.broadcast(x, y).shape)
    res = inner_product_fd(one, one, QuadratureSpec())
    assert complex(res.value).real == pytest.approx(VOL_D, abs=1e-10)
    assert res.error_estimate <= 1e-10


def test_inner_product_zero_function():
    one = lambda x, y: np.ones(np.broadcast(x, y).shape)
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    res = inner_product_fd(zero, one, QuadratureSpec())
    assert abs(complex(res.value)) == 0.0


def test_inner_product_linearity():
    one = lambda x, y: np.ones(np.broadcast(x, y).shape)
    fx = lambda x, y: x / (1.0 + y)
    both = lambda x, y: 2.0 * x / (1.0 + y) + 3.0
    a = complex(inner_product_fd(fx, one, QuadratureSpec()).value)
    b = complex(inner_product_fd(one, one, QuadratureSpec()).value)
    c = complex(inner_product_fd(both, one, QuadratureSpec()).value)
    assert c == pytest.approx(2.0 * a + 3.0 * b, abs=1e-9)


def test_omega_symmetry():
    trunc = TruncationParam(1.0)
    a = omega_rank1(1.2, 1.3, trunc)
    b = omega_rank1(1.3, 1.2, trunc)
    assert a == pytest.approx(b.conjugate(), rel=1e-13)


def test_omega_domain():
    trunc = TruncationParam(1.0)
    with pytest.raises(DomainError):
        omega_rank1(0.9, 1.3, trunc)
    with pytest.raises(DomainError):
        omega_rank1(1.2, 1.7, trunc)


@functools.cache
def _mp_c(s: float, n: int = 0):
    """c = L(2s-1)/L(2s) at s, or its n-th derivative, by 40-digit mpmath."""
    def c(t):
        def big_l(w):
            return mp.pi ** (-w / 2) * mp.gamma(w / 2) * mp.zeta(w)
        return big_l(2 * t - 1) / big_l(2 * t)

    with mp.workdps(40):
        return mp.diff(c, mp.mpf(s), n)


def _mp_omega(s1: float, s2: float, T: float) -> float:
    """omega_rank1 by mpmath at 40 digits: the four terms off the diagonal,
    their limit 2 T c(s) - c'(s) plus the outer two on it."""
    c1, c2 = _mp_c(s1), _mp_c(s2)
    with mp.workdps(40):
        a, b, T = mp.mpf(s1), mp.mpf(s2), mp.mpf(T)
        y0 = mp.exp(T)
        value = y0 ** (a + b - 1) / (a + b - 1) \
            + c1 * c2 * y0 ** (1 - a - b) / (1 - a - b)
        if s1 == s2:
            value += 2 * T * c1 - _mp_c(s1, 1)
        else:
            value += c2 * y0 ** (a - b) / (a - b) \
                + c1 * y0 ** (b - a) / (b - a)
        return float(value)


@pytest.mark.parametrize("s", [1.05, 1.25, 1.5])
def test_c_derivative_matches_mpmath(s):
    # c'(s) as omega_rank1 carries it on its diagonal: the outer two terms
    # plus 2 T c(s), less omega(s, s)
    T = 1.0
    c = _mp_c(s)
    with mp.workdps(40):
        a, y0 = mp.mpf(s), mp.e
        rest = float(y0 ** (2 * a - 1) / (2 * a - 1)
                     + c * c * y0 ** (1 - 2 * a) / (1 - 2 * a) + 2 * T * c)
    got = rest - omega_rank1(s, s, TruncationParam(T))
    want = float(_mp_c(s, 1))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_omega_matches_mpmath_across_the_diagonal():
    # |s1 - s2| from 0 through the circle's r/2 switch to 0.1, with s2 on
    # the side of s1 that stays in (1, 3/2]; the s1 = s2 rows hold c'
    worst = 0.0
    for s in (1.05, 1.06, 1.2, 1.45, 1.5):
        for d in (0.0, 1e-10, 5e-8, 1e-7, 3e-7, 1e-6, 1e-5, 1e-4, 1e-3,
                  5e-3, 1e-2, 2e-2, 0.1):
            s2 = s + d if s + d <= 1.5 else s - d
            for T in (0.5, 1.0, 1.5):
                want = _mp_omega(s, s2, T)
                got = omega_rank1(s, s2, TruncationParam(T))
                worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 2e-14


def test_omega_diagonal_limit_continuous():
    trunc = TruncationParam(1.0)
    diag = omega_rank1(1.25, 1.25, trunc)
    near = omega_rank1(1.25 + 5e-4, 1.25 - 5e-4, trunc)
    assert diag == pytest.approx(near, rel=1e-5)


def test_maass_selberg_offdiagonal():
    rec = maass_selberg_record(1.2, 1.3, 1.0)
    assert rec["rel_err"] <= 1e-3
    assert complex(rec["quadrature_value"]).real > 0


@pytest.mark.parametrize("s1,s2", [(1.001, 1.001), (1.001, 1.5),
                                   (1.5, 1.001), (1.5, 1.5)])
@pytest.mark.parametrize("T", [0.01, 2.48])
def test_maass_selberg_at_the_domain_corners(s1, s2, T):
    # next to c's pole at s = 1, at a cut line just above the arc and at
    # one a little below the decay cutoff, the fixed rule holds to 1e-13
    assert maass_selberg_record(s1, s2, T)["rel_err"] <= 1e-13


def test_maass_selberg_next_to_the_diagonal():
    # 1e-7 apart, where the middle pair cancels to 1e-7 of its size: the
    # circle mean keeps the formula as good as the quadrature
    assert maass_selberg_record(1.3, 1.3000001, 1.0)["rel_err"] <= 1e-14


def test_maass_selberg_sees_a_c_error(monkeypatch):
    # c(s) enters E below y0 and omega: off by 1e-7, each CLI triple reads
    # at least 1e-9, where unmutated each reads at most 1e-13
    def residuals():
        report = cli.run(cli.RunConfig(command="maass-selberg"))
        return [r.residual for r in report.records
                if r.name.startswith("maass-selberg-")]

    assert len(residuals()) == 3 and max(residuals()) <= 1e-13
    c_function = truncation._c_function
    monkeypatch.setattr(truncation, "_c_function",
                        lambda s: c_function(s) * (1.0 + 1e-7))
    assert min(residuals()) >= 1e-9


def test_truncated_self_product_positive():
    trunc = TruncationParam(1.0)
    f = truncated_eisenstein(1.25, trunc)
    spec = QuadratureSpec(y_split=trunc.y0)
    res = inner_product_fd(f, f, spec)
    val = complex(res.value)
    assert abs(val.imag) <= 1e-9
    assert val.real > 0


def _counted(fn, calls, key):
    def wrapper(x, y):
        calls[key] += 1
        return fn(x, y)
    return wrapper


def test_inner_product_evaluates_each_panel_once(monkeypatch):
    # one call of each function per region, on the nodes of both orders;
    # g is f is one call, to the bit of two equal evaluators; and c(s) and
    # L(2s) are computed once per evaluator, not once per region
    ratios, values = [], []
    monkeypatch.setattr(truncation, "ratio_L",
                        lambda z: ratios.append(z) or ratio_L(z))
    monkeypatch.setattr(truncation, "completed_L",
                        lambda z: values.append(z) or completed_L(z))
    trunc = TruncationParam(1.0)
    f = truncated_eisenstein(1.25, trunc)
    f_copy = truncated_eisenstein(1.25, trunc)
    assert len(ratios) == len(values) == 2
    spec = QuadratureSpec(y_split=trunc.y0)
    calls = {"f": 0, "f_copy": 0}
    f = _counted(f, calls, "f")
    same = inner_product_fd(f, f, spec)
    assert calls["f"] == same.panels == 2
    assert same.evaluations == 10 * spec.base_order ** 2
    calls["f"] = 0
    apart = inner_product_fd(f, _counted(f_copy, calls, "f_copy"), spec)
    assert calls["f"] == calls["f_copy"] == 2
    assert apart == same
    assert len(ratios) == len(values) == 2


def test_maass_selberg_diagonal_builds_one_evaluator(monkeypatch):
    # s1 = s2 shares one evaluator, to the bit of two separate ones
    built = []
    monkeypatch.setattr(truncation, "truncated_eisenstein",
                        lambda s, trunc: built.append(s)
                        or truncated_eisenstein(s, trunc))
    rec = truncation.maass_selberg_record(1.25, 1.25, 1.0)
    assert built == [1.25]
    trunc = TruncationParam(1.0)
    spec = QuadratureSpec(y_split=trunc.y0)
    apart = inner_product_fd(truncated_eisenstein(1.25, trunc),
                             truncated_eisenstein(1.25, trunc), spec)
    assert rec["quadrature_value"] == apart.value
    truncation.maass_selberg_record(1.25, 1.3, 1.0)
    assert built == [1.25, 1.25, 1.3]

