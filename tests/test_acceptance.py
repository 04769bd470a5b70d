"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not in fixtures; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion summary lines.
"""

import time

import numpy as np
import pytest

from eisenspec.contour import circle_residue, trapezoid_circle
from eisenspec.gl3 import (double_residue_closed_forms, double_residue_table,
                           multiplicativity_residual, n_entry,
                           rank_one_residual, symmetry_residual,
                           transverse_residue, volume_constant,
                           volume_factors)
from eisenspec.intertwine import cocycle_check, unitarity_check
from eisenspec.parseval import (PaleyWienerGaussian, decomposed_norm_gl2,
                                parseval_check_gl3, shifted_norm_gl2)
from eisenspec.roots import RootDatum, association_classes, truncation_terms
from eisenspec.truncation import maass_selberg_record
from eisenspec.zeta import completed_L, gamma_fn, zeta

GL2 = RootDatum(2)
GL3 = RootDatum(3)

ZETA_3 = 1.2020569031595942854  # mpmath oracle, 30 digits


def _report(num: int, label: str, residual: float, tol: float,
            extra: str = ""):
    status = "PASS" if residual <= tol else "FAIL"
    print(f"ACCEPTANCE {num:2d} {label}: {status} "
          f"(residual {residual:.3e}, tolerance {tol:.0e}{extra})")
    assert residual <= tol, f"criterion {num} ({label}) failed"


def test_criterion_01_functional_equation_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    pts = []
    while len(pts) < 200:
        s = complex(rng.uniform(-2, 3), rng.uniform(-40, 40))
        if abs(s) > 0.2 and abs(s - 1.0) > 0.2:
            pts.append(s)
    arr = np.array(pts)
    # completed_L takes L(1 - s) left of Re 1/2, so hold it to the direct
    # Euler-Maclaurin product at s and at 1 - s: one of the two is an
    # independent route wherever Re s is in [-1, 2]
    direct = [np.pi ** (-w / 2) * gamma_fn(w / 2) * zeta(w)
              for w in (arr, 1.0 - arr)]
    resid = float(max(np.max(np.abs(completed_L(arr) - d)) for d in direct))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(1, "functional equation L(s) = L(1-s)", resid, 1e-10,
            f", {elapsed:.2f}s")


def test_criterion_02_residues_of_L():
    # each pole of L is the other's clearance
    circle = trapezoid_circle(0.3, 1.0)
    r1 = circle_residue(lambda u: completed_L(1.0 + u), circle)
    r0 = circle_residue(lambda u: completed_L(u), circle)
    resid = max(abs(r1 - 1.0), abs(r0 + 1.0))
    _report(2, "residues of L at 1 and 0 are +1 and -1", resid, 1e-8)


def test_criterion_03_cocycle_identity():
    rng = np.random.default_rng(11)
    W = GL3.weyl_group()
    worst = 0.0
    for _ in range(5):
        lam = GL3.weight((complex(rng.uniform(1.1, 2.0), rng.uniform(-1, 1)),
                          complex(rng.uniform(1.1, 2.0), rng.uniform(-1, 1))))
        for s in W:
            for t in W:
                worst = max(worst, cocycle_check(s, t, lam))
    _report(3, "cocycle identity, 36 Weyl pairs x 5 points", worst, 1e-9)


def test_criterion_04_unitarity_on_axis():
    rng = np.random.default_rng(12)
    ys = rng.uniform(-4.0, 4.0, size=(50, 2))
    worst = max(unitarity_check(w, y)
                for y in ys for w in GL3.weyl_group())
    _report(4, "unitarity |m(w, iy)| = 1, 6 elements x 50 points", worst, 1e-9)


def test_criterion_05_association_counting():
    t0 = time.perf_counter()
    bad = 0.0
    for n in (2, 3, 4, 5):
        datum = RootDatum(n)
        for cls in association_classes(datum):
            if cls.chamber_count() != cls.w_count() * cls.a_count:
                bad = 1.0
        if len(truncation_terms(datum)) != 2 ** (n - 1):
            bad = 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report(5, "n(a_P) = w(P) a(class) for GL(2)..GL(5)", bad, 0.0,
            f", {elapsed:.2f}s")


def test_criterion_06_nmatrix_lemmas():
    rng = np.random.default_rng(13)
    zs = 1j * np.concatenate([[0.0], rng.uniform(-3.0, 3.0, 19)])
    rank = max(rank_one_residual(z) for z in zs)
    symm = max(symmetry_residual(z) for z in zs)
    mult = max(multiplicativity_residual(z) for z in zs)
    _report(6, "N(z) rank one", rank, 1e-9)
    _report(6, "N(z) symmetry n_ij(z) = n_ji(-z)", symm, 1e-12)
    _report(6, "N(z) multiplicativity", mult, 1e-9)


def test_criterion_07_transverse_residues():
    rng = np.random.default_rng(14)
    L2 = complex(completed_L(2.0))
    worst = 0.0
    for z in 1j * rng.uniform(-2.5, 2.5, 5):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                got = transverse_residue(i, j, z)
                want = n_entry(i, j, z) / L2
                worst = max(worst, abs(got - want) / abs(want))
    _report(7, "transverse residue x L(2) = n_ij, 9 entries x 5 points",
            worst, 1e-6)


def test_criterion_08_double_residues():
    table = double_residue_table()
    forms = double_residue_closed_forms()
    worst = max(abs(v - f) / abs(f) for (_, _, v), f in zip(table, forms))
    cancel = abs(sum(v for (_, pt, v) in table if pt.coeffs != (1.0, 1.0)))
    _report(8, "five double residues match closed forms", worst, 1e-6)
    _report(8, "fundamental-weight double residues cancel", cancel, 1e-8)


def test_criterion_09_volume_formula():
    assert volume_factors(GL2) == [2]
    assert volume_factors(GL3) == [2, 3]
    v2 = volume_constant(GL2)
    v3 = volume_constant(GL3)
    want2 = np.pi / 6.0
    want3 = (np.pi / 6.0) * (ZETA_3 / (2.0 * np.pi))
    resid = max(abs(v2 - want2), abs(v3 - want3))
    _report(9, "vol = L(2) for GL(2), L(2)L(3) for GL(3)", resid, 1e-12)


@pytest.mark.parametrize("s1,s2,T", [(1.2, 1.3, 1.0), (1.25, 1.25, 1.0),
                                     (1.4, 1.1, 0.5)])
def test_criterion_10_maass_selberg(s1, s2, T):
    t0 = time.perf_counter()
    rec = maass_selberg_record(s1, s2, T)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(10, f"Maass-Selberg ({s1}, {s2}, T={T})", rec["rel_err"], 1e-3,
            f", {elapsed:.1f}s")


def test_criterion_11_gl2_parseval():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(5):
        phi = PaleyWienerGaussian.random(GL2, rng)
        shifted = shifted_norm_gl2(phi, 1.5)
        axis, residue = decomposed_norm_gl2(phi)
        worst = max(worst, abs(shifted - axis - residue) / abs(shifted))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(11, "GL(2) shifted = axis + |Phi(rho)|^2/L(2), 5 profiles",
            worst, 1e-6, f", {elapsed:.1f}s")


def test_criterion_12_gl3_parseval():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    kappas_b, kappas_c = [], []
    for _ in range(3):
        phi = PaleyWienerGaussian.random(GL3, rng)
        rep = parseval_check_gl3(phi, (1.5, 1.5), (1.3, 1.8))
        worst = max(worst, rep.residual_rel)
        worst = max(worst, abs(rep.shifted_alt - rep.shifted) / abs(rep.shifted))
        kappas_b.append(rep.kappa_B)
        kappas_c.append(rep.kappa_C)
    spread = max(max(kappas_b) - min(kappas_b),
                 max(kappas_c) - min(kappas_c))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10min"
    _report(12, "GL(3) shifted = A + kappa_B B + kappa_C C, 3 profiles",
            worst, 1e-4, f", {elapsed:.0f}s")
    _report(12, "kappa_B, kappa_C identical across runs", spread, 1e-8)


def test_criterion_13_a_form_equivalence():
    from eisenspec.parseval import contribution_A
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(2):
        phi = PaleyWienerGaussian.random(GL3, rng)
        direct, symmetric = contribution_A(phi)
        worst = max(worst, abs(direct - symmetric) / abs(direct))
    _report(13, "A as W-sum equals (1/6) integral |F|^2", worst, 1e-6)
