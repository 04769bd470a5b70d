"""Seeded inputs, verification ops and correctness gates of the benchmark.

One op is one verification unit, the unit the eisenspec CLI reports as a
check: it computes a quantity two ways and returns the residuals between
them.  Every input is drawn here from the benchmark seed; the library only
ever receives the generated profiles, points and triples.

Inputs come in a pool per run.  Each real parameter is drawn stratified
across its range (a Latin hypercube), so that every pool carries the same
mix of cheap and expensive ops, and of inputs near the hard corners of the
range, and two seeds can be compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from eisenspec import gl3, intertwine, parseval, truncation
from eisenspec.errors import DomainError, NonConvergence, PoleProximity
from eisenspec.roots import RootDatum
from eisenspec.zeta import completed_L

# Gates copied from eisenspec.cli.TOLERANCES, never imported: a later edit of
# a gate in the program must not move failed_frac or margin_digits.min.
# "kappa" holds |kappa - 1| to the kappa-spread value, as tests/test_parseval
# does, so that the measure-constant quadrature cannot be coarsened unseen.
GATES = {
    "parseval-gl3": 1e-4,
    "a-form": 1e-6,
    "kappa": 1e-8,
    "transverse": 1e-6,
    "nmatrix-rank": 1e-9,
    "nmatrix-symmetry": 1e-12,
    "nmatrix-mult": 1e-9,
    "cocycle": 1e-9,
    "unitarity": 1e-9,
    "maass-selberg": 1e-3,
}

# The errors the library raises for a bad input or a failed scheme.  An op
# that raises one of them counts as failed; any other exception is a defect
# of the benchmark and stops the run.
OP_ERRORS = (PoleProximity, DomainError, NonConvergence)

EPS = float(np.finfo(np.float64).eps)

GL3 = RootDatum(3)


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi), one in each of n equal strata, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


# ------------------------------------------------------------ spectral-gl3 --


def _spectral_draw(rng: np.random.Generator, n: int) -> list:
    """Gaussian profiles with a random polynomial factor of degree <= 2."""
    exponents = [e for e in np.ndindex(3, 3) if sum(e) <= 2]
    profiles = []
    for beta in _stratified(rng, n, 0.35, 0.8):
        coeffs = {tuple(int(k) for k in e): complex(*rng.uniform(-1.0, 1.0, 2))
                  for e in exponents}
        profiles.append(parseval.PaleyWienerGaussian(GL3, float(beta), coeffs))
    return profiles


def _spectral_reference():
    return parseval.PaleyWienerGaussian(GL3, 0.575)


def _spectral_op(phi) -> list[tuple[str, float]]:
    rep = parseval.parseval_check_gl3(phi, (1.5, 1.5), (1.3, 1.8))
    shifted = abs(rep.shifted)
    return [
        ("parseval-gl3", rep.residual_rel),
        ("parseval-gl3", abs(rep.shifted_alt - rep.shifted) / shifted),
        ("a-form", abs(rep.A_direct - rep.A_symmetric) / abs(rep.A_direct)),
        ("kappa", abs(rep.kappa_B - 1.0)),
        ("kappa", abs(rep.kappa_C - 1.0)),
    ]


# ------------------------------------------------------------- residue-gl3 --


@dataclass(frozen=True)
class ResiduePoint:
    """A point z on the singular lines, a weight for the cocycle identity and
    a real vector for unitarity on the imaginary axis."""

    z: complex
    lam: tuple[complex, complex]
    y: tuple[float, float]


def _residue_draw(rng: np.random.Generator, n: int) -> list:
    t, re1, re2, im1, im2, y1, y2 = (
        _stratified(rng, n, lo, hi) for lo, hi in (
            (-2.5, 2.5), (1.1, 2.0), (1.1, 2.0), (-1.0, 1.0), (-1.0, 1.0),
            (-4.0, 4.0), (-4.0, 4.0)))
    return [ResiduePoint(1j * float(t[k]),
                         (complex(re1[k], im1[k]), complex(re2[k], im2[k])),
                         (float(y1[k]), float(y2[k])))
            for k in range(n)]


def _residue_reference():
    return ResiduePoint(0.7j, (1.5 + 0.2j, 1.6 - 0.3j), (1.0, -2.0))


def _residue_op(p: ResiduePoint) -> list[tuple[str, float]]:
    L2 = complex(completed_L(2.0))
    checks = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            want = gl3.n_entry(i, j, p.z) / L2
            got = gl3.transverse_residue(i, j, p.z)
            checks.append(("transverse", abs(got - want) / abs(want)))
    checks.append(("nmatrix-rank", gl3.rank_one_residual(p.z)))
    checks.append(("nmatrix-symmetry", gl3.symmetry_residual(p.z)))
    checks.append(("nmatrix-mult", gl3.multiplicativity_residual(p.z)))
    weyl = GL3.weyl_group()
    lam = GL3.weight(p.lam)
    checks.append(("cocycle", max(intertwine.cocycle_check(s, t, lam)
                                  for s in weyl for t in weyl)))
    checks.append(("unitarity", max(intertwine.unitarity_check(w, p.y)
                                    for w in weyl)))
    return checks


# ----------------------------------------------------------- maass-selberg --


def _maass_draw(rng: np.random.Generator, n: int) -> list:
    """Every fourth triple sits on the diagonal s1 = s2, where omega_rank1
    takes its central-difference branch."""
    T = _stratified(rng, n, 0.5, 1.5)
    s1 = _stratified(rng, n, 1.05, 1.5)
    s2 = _stratified(rng, n, 1.05, 1.5)
    return [(float(s1[k]), float(s1[k] if k % 4 == 0 else s2[k]), float(T[k]))
            for k in range(n)]


def _maass_reference():
    return (1.2, 1.3, 1.0)


def _maass_op(triple) -> list[tuple[str, float]]:
    rec = truncation.maass_selberg_record(*triple)
    return [("maass-selberg", rec["rel_err"])]


# --------------------------------------------------------------- registry --


@dataclass(frozen=True)
class Workload:
    """A closed loop of verification ops: one caller, one op at a time."""

    name: str
    why: str
    pool_size: int      # inputs per pass; one pass fills the run time
    trace_size: int     # inputs measured twice, untraced and traced
    draw: Callable[[np.random.Generator, int], list]
    reference: Callable[[], object]
    op: Callable[[object], list]


WORKLOADS = {w.name: w for w in (
    Workload(
        "spectral-gl3",
        "zeta on grids of 1e3-1e5 points inside the Parseval spectral "
        "integrals; m-dedup and a separable zeta kernel must gain here",
        7, 3, _spectral_draw, _spectral_reference, _spectral_op),
    Workload(
        "residue-gl3",
        "zeta one point or one circle at a time, so per-call overhead rules; "
        "the gl3, intertwine and roots layers work here",
        144, 72, _residue_draw, _residue_reference, _residue_op),
    Workload(
        "maass-selberg",
        "truncation quadrature with zeta at a quarter of the time: the "
        "control on which a zeta-kernel change should move nothing",
        336, 168, _maass_draw, _maass_reference, _maass_op),
)}


@dataclass
class Outcome:
    """Gate verdict of one op; margins are log10(gate / residual)."""

    failed: bool
    margins: list[tuple[str, float]]
    error: str | None = None


def check(workload: Workload, inp) -> Outcome:
    """Run one op and hold each residual to its pinned gate."""
    try:
        checks = workload.op(inp)
    except OP_ERRORS as exc:
        return Outcome(True, [], f"{type(exc).__name__}: {exc}")
    failed = False
    margins = []
    for name, residual in checks:
        residual = float(residual)
        gate = GATES[name]
        if not math.isfinite(residual) or residual > gate:
            failed = True
        if math.isfinite(residual):
            margins.append((name, math.log10(gate / max(residual, EPS))))
    return Outcome(failed, margins)
