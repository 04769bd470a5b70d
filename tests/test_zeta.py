"""Completed-zeta engine: frozen oracle values, identities, residues.

Expected values were computed with mpmath at 30 digits (the independent
oracle) and frozen; the mpmath cross-checks are kept for the grid tests
where a frozen list would obscure the property being verified.
"""

import importlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from eisenspec.contour import circle_nodes, circle_residue, trapezoid_circle
from eisenspec.errors import DomainError, PoleProximity
from eisenspec.zeta import (_completed_L_raw, _laurent_c0, completed_L,
                            gamma_fn, ratio_L, zeta)

mp.mp.dps = 30

# frozen oracle values (mpmath, 30 digits)
ZETA_2 = 1.6449340668482264365
ZETA_3 = 1.2020569031595942854
SQRT_PI = 1.7724538509055160273
L_2 = 0.52359877559829887308      # pi/6
L_3 = 0.19131329801644807620      # zeta(3)/(2 pi)
L_03_2I = complex(-0.20717261339322476282, 0.043375669082548637421)


def _direct_L(s):
    """pi^(-s/2) Gamma(s/2) zeta(s) with the public zeta, which sums
    Euler-Maclaurin directly on Re s >= -1: there a route independent of
    completed_L, which takes L(1 - s) left of Re 1/2."""
    return np.power(np.pi + 0j, -s / 2.0) * gamma_fn(s / 2.0) * zeta(s)


def _mp_L(w):
    """L at an mpmath complex w, by mpmath."""
    return mp.pi ** (-w / 2) * mp.gamma(w / 2) * mp.zeta(w)


def test_zeta_at_2():
    assert complex(zeta(2.0)) == pytest.approx(ZETA_2, abs=1e-13)


def test_zeta_at_0():
    assert complex(zeta(0.0)) == pytest.approx(-0.5, abs=1e-13)


def test_zeta_real_axis_is_real():
    val = complex(zeta(2.0 + 0.0j))
    assert abs(val.imag) < 1e-14


def test_zeta_against_oracle_grid():
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = complex(rng.uniform(-6, 6), rng.uniform(-60, 60))
        if abs(s - 1.0) < 0.3:
            continue
        want = complex(mp.zeta(s))
        got = complex(zeta(s))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_zeta_pole_guard():
    with pytest.raises(PoleProximity):
        zeta(1.0 + 1e-9j)


def test_gamma_values():
    assert complex(gamma_fn(1.0)) == pytest.approx(1.0, rel=1e-14)
    assert complex(gamma_fn(0.5)) == pytest.approx(SQRT_PI, rel=1e-13)
    assert complex(gamma_fn(3.0)) == pytest.approx(2.0, rel=1e-14)


def test_gamma_recurrence():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = complex(rng.uniform(-3, 4), rng.uniform(-30, 30))
        if abs(s.imag) < 0.2 and abs(s - round(s.real)) < 0.2:
            continue
        lhs = complex(gamma_fn(s + 1.0))
        rhs = s * complex(gamma_fn(s))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_pole_guard():
    with pytest.raises(PoleProximity):
        gamma_fn(-2.0 + 1e-9j)


def test_completed_L_values():
    assert complex(completed_L(2.0)) == pytest.approx(L_2, rel=1e-13)
    assert complex(completed_L(3.0)) == pytest.approx(L_3, rel=1e-13)


def test_completed_L_functional_equation_pair():
    # L(0.3 + 2i) is evaluated as L(0.7 - 2i), so both equal the same
    # frozen value, not merely each other
    for s in (0.3 + 2.0j, 0.7 - 2.0j):
        assert abs(complex(completed_L(s)) - L_03_2I) < 1e-12


def test_completed_L_functional_equation_grid():
    # left of Re 1/2, L(1 - s) against the direct Euler-Maclaurin zeta
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 200:
        s = complex(rng.uniform(-1, 0.5), rng.uniform(-40, 40))
        if abs(s) > 0.2:
            pts.append(s)
    arr = np.array(pts)
    resid = np.max(np.abs(completed_L(arr) - _direct_L(arr)))
    assert resid <= 1e-10


def test_completed_L_matches_mpmath_on_the_validated_rectangle():
    rng = np.random.default_rng(29)
    s = rng.uniform(-6, 6, 120) + 1j * rng.uniform(-150, 150, 120)
    s = s[np.minimum(np.abs(s), np.abs(s - 1.0)) > 0.2]
    want = np.array([complex(_mp_L(mp.mpc(x.real, x.imag))) for x in s])
    # 2.8e-13 at worst here; Euler-Maclaurin run directly down to Re -1
    # reads 8.0e-13
    assert np.max(np.abs(completed_L(s) - want) / np.abs(want)) <= 5e-13


def test_completed_L_raises_where_not_finite():
    # Gamma(172.5) overflows a double
    with pytest.raises(DomainError):
        completed_L(345.0)
    with pytest.raises(DomainError):
        completed_L(np.array([2.0, 400.0]))


@pytest.mark.parametrize("f", [zeta, gamma_fn, completed_L, ratio_L])
@pytest.mark.parametrize("s", [math.nan, math.inf, complex(1.5, math.inf)],
                         ids=("nan", "inf", "1.5+inf-j"))
def test_non_finite_argument_is_a_domain_error(f, s):
    # alone or in a batch with a good point
    for arg in (s, np.array([2.0, s])):
        with pytest.raises(DomainError, match="not finite"):
            f(arg)


def test_completed_L_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(40):
        s = complex(rng.uniform(-2, 3), rng.uniform(0.3, 40))
        if min(abs(s), abs(s - 1.0)) < 0.25:
            continue
        assert abs(complex(completed_L(np.conj(s)))
                   - complex(completed_L(s)).conjugate()) < 1e-12


def test_ratio_L_removable_origin():
    assert complex(ratio_L(0.0)) == pytest.approx(-1.0, abs=1e-14)
    # continuity into the series region
    assert complex(ratio_L(1e-7)) == pytest.approx(complex(ratio_L(2e-6)),
                                                   abs=1e-5)
    # an array through 0: no floating-point warning from the quotient at
    # the tiny points, and every other point as an array call without them
    z = np.array([[0.0, 0.3 + 1j, 1e-8j], [-0.4 - 2j, 0.0, 2.5]])
    tiny = np.abs(z) < 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ratio_L(z)
    assert got.shape == z.shape
    assert np.array_equal(got[~tiny], ratio_L(z[~tiny]))
    assert np.allclose(got[tiny], -1.0, atol=1e-7)


def test_ratio_L_direct_quotient():
    want = complex(completed_L(1.5)) / complex(completed_L(2.5))
    assert complex(ratio_L(1.5)) == pytest.approx(want, rel=1e-14)


def test_ratio_L_unimodular_on_axis():
    # ratio_L(it) takes L(it) as L(1 - it), the conjugate of L(1 + it); the
    # direct L(it) checks the modulus independently
    t = np.linspace(-40.0, 40.0, 161)
    vals = np.abs(np.asarray(ratio_L(1j * t)))
    assert np.max(np.abs(vals - 1.0)) <= 1e-9
    it = 1j * t[t != 0.0]
    direct = np.abs(_direct_L(it) / completed_L(1.0 + it))
    assert np.max(np.abs(direct - 1.0)) <= 1e-9


def test_ratio_L_pole_guard():
    with pytest.raises(PoleProximity):
        ratio_L(1.0 + 1e-9j)


# The circle of L's residues at 1 and 0: each pole is the other's clearance.
L_POLE_CIRCLE = trapezoid_circle(0.3, 1.0)


def test_residue_of_L_at_1_and_0():
    res1 = circle_residue(lambda u: completed_L(1.0 + u), L_POLE_CIRCLE)
    res0 = circle_residue(lambda u: completed_L(u), L_POLE_CIRCLE)
    assert abs(res1 - 1.0) <= 1e-10
    assert abs(res0 + 1.0) <= 1e-10


def test_residue_of_analytic_function_is_zero():
    res = circle_residue(ratio_L, trapezoid_circle(0.1, 1.0))
    assert abs(res) <= 1e-12


def test_residue_node_doubling_stable():
    # the sized circle against its twin of twice the nodes
    radius, nodes = L_POLE_CIRCLE
    a = circle_residue(lambda u: completed_L(1.0 + u), L_POLE_CIRCLE)
    b = circle_residue(lambda u: completed_L(1.0 + u), (radius, 2 * nodes))
    assert L_POLE_CIRCLE == (0.3, 32)
    assert abs(a - b) < 1e-10


def test_laurent_constant_matches_its_closed_form():
    # L(s) = 1/(s-1) + (gamma - log 4pi)/2 + O(s-1)
    c0 = _laurent_c0()
    assert abs(c0 - (np.euler_gamma - math.log(4.0 * math.pi)) / 2.0) <= 1e-15
    assert complex(ratio_L(1e-8)) == -1.0 + 2e-8 * c0


# ----------------------------------------------------- separable grids --


def _ratio_oracle(z) -> complex:
    s = mp.mpc(z.real, z.imag)
    return complex(_mp_L(s) / _mp_L(1 + s))


# The bound on the error of either route, by the real part of the line.
# Neither route is systematically the better: over 48 line (+) circle grids
# with Re from -0.95 to 2.5 the grid's worst error was the larger on 25, at
# 0.70 to 1.86 times the pointwise one.  Next to a zero of L(1 + z) one
# point can favour either by 3x (0.5 - 14.3i: 3.2e-13 against 1.0e-13), so
# both routes are held to one bound per row, not to each other.
_GRID_BOUND = {-0.65: 8e-13, -0.5: 5e-13, 0.5: 2.5e-14, 1.0: 2.5e-14,
               2.3: 1e-14}


@pytest.mark.parametrize("re", sorted(_GRID_BOUND))
def test_ratio_L_grid_matches_pointwise_and_oracle(re):
    # the (line point) + (circle node) shapes of the measure-constant grids
    a = re + 1j * np.linspace(-14.0, 14.0, 9)
    b = circle_nodes(0.3, 12)
    grid = np.asarray(ratio_L(a, plus=b))
    pointwise = np.asarray(ratio_L(np.add.outer(a, b)))
    assert grid.shape == (9, 12)
    want = np.array([[_ratio_oracle(z) for z in row]
                     for row in np.add.outer(a, b)])
    assert np.max(np.abs(grid - want)) <= _GRID_BOUND[re]
    assert np.max(np.abs(pointwise - want)) <= _GRID_BOUND[re]


def test_ratio_L_grid_high_imaginary_part():
    # |Im| > 40 on the grid, though on neither factor alone, raises the
    # Euler-Maclaurin length above its default of 48
    a = 0.4 + 1j * np.linspace(20.0, 24.0, 4)
    b = 21j + circle_nodes(0.3, 8)
    grid = np.asarray(ratio_L(a, plus=b))
    want = np.array([[_ratio_oracle(z) for z in row]
                     for row in np.add.outer(a, b)])
    assert np.max(np.abs(grid - want) / np.abs(want)) <= 1e-11


def test_ratio_L_grid_pole_guard():
    with pytest.raises(PoleProximity):
        ratio_L(np.array([0.2, 0.5]), plus=np.array([0.3, 0.5 + 1e-9j]))


def test_ratio_L_grid_laurent_fill():
    a = np.array([0.0, 0.3 + 0.2j])
    b = np.array([1e-8, 0.1, -0.2j])
    grid = np.asarray(ratio_L(a, plus=b))
    assert grid[0, 0] == -1.0 + 2e-8 * _laurent_c0()
    pointwise = np.asarray(ratio_L(np.add.outer(a, b)))
    assert np.max(np.abs(grid - pointwise)) <= 1e-14


def test_ratio_L_grid_rows_do_not_depend_on_a_laurent_fill():
    # a point within the exclusion radius of 0 is filled alone: the rows
    # without one are bit for bit those of the same grid without it
    a = np.array([0.0, 0.3 + 0.2j, -0.7 + 3j, 0.55 - 1j])
    b = np.array([1e-8, 0.1, -0.2j, 0.05 + 0.4j])
    grid = np.asarray(ratio_L(a, plus=b))
    clear = np.asarray(ratio_L(np.concatenate(([0.5], a[1:])), plus=b))
    assert np.array_equal(grid[1:], clear[1:])


# ------------------------------------------------------- one kernel pass --

zeta_module = importlib.import_module("eisenspec.zeta")


@pytest.mark.parametrize("z, plus", [
    (np.array([1.5, 0.3 + 2j, -0.8 - 1j, -2.0 + 5j]), None),
    (0.4 + 1j * np.linspace(-3.0, 3.0, 5), circle_nodes(0.3, 6)),
    (np.array([0.0, 0.3 + 1j, 1e-8j, -0.4 - 2j]), None),
], ids=["points", "grid", "laurent-fill"])
def test_ratio_L_is_one_kernel_pass(monkeypatch, z, plus):
    # L(z) and L(1 + z) come from one Euler-Maclaurin call and one Gamma
    # call, on points, on a plus= grid and through the Laurent fill at 0
    _laurent_c0()  # cached, so its own kernel calls are not counted here
    calls = []
    for name in ("_zeta_em_core", "_gamma_raw"):
        def counting(*args, _name=name, _kernel=getattr(zeta_module, name)):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(zeta_module, name, counting)
    ratio_L(z, plus=plus)
    assert sorted(calls) == ["_gamma_raw", "_zeta_em_core"]


def test_ratio_L_and_L_do_not_depend_on_the_batch():
    # a point alone gives bit for bit its value inside a 5,000-point array:
    # every |Im| <= 40 keeps the Euler-Maclaurin length at 48 throughout,
    # so only a batch-dependent reduction could move a value
    rng = np.random.default_rng(17)
    s = rng.uniform(-3.0, 4.0, 5000) + 1j * rng.uniform(-40.0, 40.0, 5000)
    s = s[np.minimum(np.abs(s), np.abs(s - 1.0)) > 0.05]
    ratios, values = ratio_L(s), completed_L(s)
    for k in rng.choice(s.size, 40, replace=False):
        assert ratio_L(s[k]) == ratios[k]
        assert completed_L(s[k]) == values[k]


@pytest.mark.parametrize("lo, hi", [(-3.0, -0.5), (-0.5, 0.5), (0.5, 4.0)],
                         ids=["both-reflected", "strip", "neither"])
def test_ratio_L_matches_the_two_call_quotient(lo, hi):
    # the one pass against L(z) and L(1 + z) evaluated apart, in each region
    # of the pi factor: 1/sqrt(pi), pi^z and sqrt(pi); 7e-16 measured
    rng = np.random.default_rng(23)
    z = rng.uniform(lo, hi, 300) + 1j * rng.uniform(-40.0, 40.0, 300)
    z = z[np.abs(z) > 0.05]
    two = _completed_L_raw(z) / _completed_L_raw(1.0 + z)
    assert np.max(np.abs(ratio_L(z) - two) / np.abs(two)) <= 1e-14


def test_ratio_L_grid_matches_the_two_call_quotient():
    # a plus= grid across both Re z = -1/2 and Re z = 1/2, below the first
    # zeta zero; 5e-15 measured against L apart at each point of the sum
    a = np.linspace(-0.9, 0.9, 7) + 1j * np.linspace(-10.0, 10.0, 7)
    b = circle_nodes(0.3, 12)
    s = np.add.outer(a, b)
    two = _completed_L_raw(s) / _completed_L_raw(1.0 + s)
    assert np.max(np.abs(ratio_L(a, plus=b) - two) / np.abs(two)) <= 1e-14


# ------------------------------------------------- the kernel's table forms --


def _loop_lanczos_sum(zz):
    """The Lanczos sum term by term, the oracle of the kernel's table."""
    acc = np.full_like(zz, zeta_module._LANCZOS_COEF[0])
    for k in range(1, len(zeta_module._LANCZOS_COEF)):
        acc = acc + zeta_module._LANCZOS_COEF[k] / (zz + (k - 1))
    return acc


def _loop_bernoulli_tail(w, N, n_w):
    """The Bernoulli tail term by term, a rising factorial times a power of
    N: the oracle of the kernel's Estrin form (n_w is not used).  With both
    loops in place the kernel is the term-by-term one bit for bit."""
    poch = w.copy()  # w (w + 1) ... (w + 2k - 2), k = 1 gives w
    npow = np.exp(-(w + 1.0) * math.log(N))
    corr = np.zeros_like(w)
    for k in range(1, zeta_module._BERNOULLI_ORDER + 1):
        corr = corr + zeta_module._B2K_OVER_FACT[k - 1] * poch * npow
        poch = poch * (w + (2 * k - 1)) * (w + (2 * k))
        npow = npow / (N * N)
    return corr


@pytest.fixture
def loop_kernel(monkeypatch):
    """Evaluate f with the kernel's term-by-term loops in place of its table
    forms, everything else unchanged."""
    def evaluate(f, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(zeta_module, "_lanczos_sum", _loop_lanczos_sum)
            m.setattr(zeta_module, "_bernoulli_tail", _loop_bernoulli_tail)
            return f(*args, **kwargs)
    return evaluate


def _rel(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


def test_kernel_tables_match_the_term_by_term_loops(loop_kernel):
    # 2,000 seeded points of the validated rectangle.  The Lanczos rows add
    # in the loop's order, so Gamma is the loop's bit for bit; Estrin's
    # order moves the tail's roundings, and L by 1.4e-16, ratio_L by
    # 2.0e-16 and its grids by 2.3e-16 here (measured)
    rng = np.random.default_rng(29)
    s = rng.uniform(-6.0, 6.0, 2000) + 1j * rng.uniform(-150.0, 150.0, 2000)
    s = s[np.minimum(np.abs(s), np.abs(s - 1.0)) > 0.05]
    assert np.array_equal(gamma_fn(s / 2.0), loop_kernel(gamma_fn, s / 2.0))
    assert _rel(completed_L(s), loop_kernel(completed_L, s)) <= 1e-15
    assert _rel(ratio_L(s), loop_kernel(ratio_L, s)) <= 1e-15
    for k in range(0, s.size - 24, 200):  # plus= grids on circles
        a, b = s[k:k + 12], circle_nodes(0.3, 12)
        assert _rel(ratio_L(a, plus=b),
                    loop_kernel(ratio_L, a, plus=b)) <= 1e-15


def test_gamma_does_not_depend_on_the_batch():
    rng = np.random.default_rng(31)
    s = rng.uniform(-6.0, 6.0, 5000) + 1j * rng.uniform(-75.0, 75.0, 5000)
    values = gamma_fn(s)
    for k in rng.choice(s.size, 40, replace=False):
        assert gamma_fn(s[k]) == values[k]


def test_two_dimensional_input_is_evaluated_point_by_point():
    # the plus= grids hand 2-D arrays to the kernel; |Im| <= 40 keeps the
    # Euler-Maclaurin length at 48 for the whole array and for each point
    rng = np.random.default_rng(37)
    s = (rng.uniform(-3.0, 4.0, (30, 40))
         + 1j * rng.uniform(-40.0, 40.0, (30, 40)))
    s[np.minimum(np.abs(s), np.abs(s - 1.0)) < 0.05] = 0.5 + 0.5j
    gammas, values = gamma_fn(s), completed_L(s)
    assert gammas.shape == values.shape == (30, 40)
    for i, j in zip(rng.integers(0, 30, 40), rng.integers(0, 40, 40)):
        assert gamma_fn(s[i, j]) == gammas[i, j]
        assert completed_L(s[i, j]) == values[i, j]


# ------------------------------------------------------ conjugate halves --


def test_ratio_L_is_exactly_conjugation_equivariant():
    # ratio_L(conj z) == conj ratio_L(z) bit for bit, the property the fold
    # of conjugate halves rests on: on points of each pi-factor region
    # (1/sqrt(pi), pi^z, sqrt(pi)), on plus= grids, and through the Laurent
    # fill at 0, whose constant is real
    rng = np.random.default_rng(41)
    for lo, hi in ((-3.0, -0.5), (-0.5, 0.5), (0.5, 4.0)):
        z = rng.uniform(lo, hi, 400) + 1j * rng.uniform(-40.0, 40.0, 400)
        z = z[np.abs(z - 1.0) > 0.05]
        assert np.array_equal(ratio_L(np.conj(z)), np.conj(ratio_L(z)))
        b = circle_nodes(0.3, 12) * np.exp(1j * rng.uniform(0.0, 1.0))
        a = z[:20]
        assert np.array_equal(ratio_L(np.conj(a), plus=np.conj(b)),
                              np.conj(ratio_L(a, plus=b)))
    tiny = (rng.uniform(-7e-7, 7e-7, 50) + 1j * rng.uniform(-7e-7, 7e-7, 50))
    tiny = np.append(tiny, [3e-7 + 2e-7j, 1e-8j])
    assert np.array_equal(ratio_L(np.conj(tiny)), np.conj(ratio_L(tiny)))
    assert isinstance(_laurent_c0(), float)


def _symmetric_lines():
    """Conjugation-symmetric last axes: odd and even lines, stacked rows,
    and a line through the removable point 0."""
    t_odd = 0.37 * np.arange(-40, 41)
    t_even = 0.37 * (np.arange(-40, 40) + 0.5)
    return {
        "odd": 0.5 + 1j * t_odd,
        "even": -0.8 + 1j * t_even,
        "stacked": np.stack([a + 1j * t_even for a in (-1.5, 0.0, 0.3, 2.5)]),
        "through-0": 1j * t_odd,
    }


@pytest.mark.parametrize("name", sorted(_symmetric_lines()))
def test_folded_halves_match_pointwise_values(name):
    # every |Im| <= 40 keeps the Euler-Maclaurin length at 48, so a point
    # alone is bit for bit its value inside any batch
    z = _symmetric_lines()[name]
    assert np.array_equal(z[..., ::-1].conj(), z)
    got = ratio_L(z)
    assert got.shape == z.shape
    want = np.array([complex(ratio_L(p)) for p in z.ravel()])
    assert np.array_equal(got.ravel(), want)


@pytest.mark.parametrize("name", sorted(_symmetric_lines()))
def test_folded_halves_take_half_the_kernel_points(monkeypatch, name):
    # z and 1 + z of the upper half, the centre of an odd axis with it: one
    # pass on about half the 2 z.size points of the unfolded call
    _laurent_c0()  # cached, so its own kernel calls are not counted here
    points = []
    kernel = zeta_module._zeta_em_core

    def counting(a, b, reflect):
        points.append(a.size)
        return kernel(a, b, reflect)
    monkeypatch.setattr(zeta_module, "_zeta_em_core", counting)
    z = _symmetric_lines()[name]
    ratio_L(z)
    n = z.shape[-1]
    assert points == [2 * (z.size // n) * (n - n // 2)]
    points.clear()
    ratio_L(z + 0.01j)  # not symmetric: the whole axis
    assert points == [2 * z.size]
