"""Trapezoid rules sized from their singularity distance."""

import math

import numpy as np
import pytest

from eisenspec.contour import (circle_residue, gaussian_width, line_step,
                               pole_factor, window)
from eisenspec.errors import DomainError, PoleProximity


@pytest.mark.parametrize("error", [PoleProximity, DomainError])
def test_circle_residue_propagates_pole_and_domain_errors(error):
    calls = []

    def f(u):
        calls.append(u)
        # PoleProximity carries the point and the pole
        raise error("rejected", *((u, 0.0) if error is PoleProximity else ()))

    with pytest.raises(error):
        circle_residue(f, (0.1, 16))
    assert len(calls) == 1


def test_line_step_meets_its_bound():
    # exp(-2 pi d / h) = 2^-53 at the step, to rounding
    for d in (0.3, 0.45, 0.5):
        h = line_step(d)
        assert math.exp(-2.0 * math.pi * d / h) == pytest.approx(2.0 ** -53,
                                                                 rel=1e-13)
    assert line_step(0.45) == pytest.approx(0.0770, abs=5e-5)


def test_line_step_resolves_a_strip_integrand():
    # sech t has its poles at +-i pi/2 and integrates to pi; the rule errs
    # by 4 pi exp(-2 pi d / h) = 1.4e-15 at d = pi/2, h = line_step(d)
    t, h = window(40.0, line_step(math.pi / 2.0))
    assert abs(h * np.sum(1.0 / np.cosh(t)) - math.pi) <= 2e-15
    # at twice the step the same rule misses by 4 pi 2^-26.5
    t, h = window(40.0, 2.0 * line_step(math.pi / 2.0))
    assert abs(h * np.sum(1.0 / np.cosh(t)) - math.pi) > 1e-8


def test_window_rounds_up_to_a_whole_step():
    t, step = window(1.05, 0.5)
    assert step == 0.5
    assert t.tolist() == [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]


def test_gaussian_width_puts_the_edge_at_exp_minus_44():
    # the plane rate beta and the line rate 4 beta / 3 at both ends of the
    # beta range random profiles draw
    for rate in (0.35, 0.8, 4 * 0.35 / 3, 4 * 0.8 / 3):
        width = gaussian_width(rate)
        assert rate * width ** 2 == pytest.approx(44.0, rel=1e-15)
        t, step = window(width, 0.1)
        assert width <= t[-1] < width + step


@pytest.mark.parametrize("rate", [0.0, -0.5, math.inf, math.nan])
def test_gaussian_width_refuses_a_rate_that_is_not_positive_and_finite(rate):
    with pytest.raises(ValueError):
        gaussian_width(rate)


def test_pole_factor_is_the_exact_error_of_a_pole():
    # f(z) = exp(z^2) / (z - p) on z = 1/2 + it, p = 1/5 at distance 0.3:
    # the (1/2pi) dt rule of step h exceeds the integral (0.636, by the
    # rule at a step 25x finer, whose pole term is exp(-188)) by exp(p^2)
    # times the factor, 5.5e-4 and 2.0e-3, to rounding; the Gaussian's own
    # error is below exp(-pi^2 / h^2)
    p = 0.2

    def rule(step):
        t, h = window(12.0, step)
        z = 0.5 + 1j * t
        return complex(np.sum(np.exp(z * z) / (z - p))) * h / (2.0 * math.pi)

    for h in (0.25, 0.3):
        want = math.exp(p * p) * pole_factor(0.3, h)
        assert abs(rule(h) - rule(h / 25.0) - want) <= 1e-15


@pytest.mark.parametrize("distance", [0.0, -0.5, math.inf, math.nan])
def test_pole_factor_refuses_a_distance_that_is_not_positive_and_finite(
        distance):
    with pytest.raises(ValueError):
        pole_factor(distance, 0.1)
