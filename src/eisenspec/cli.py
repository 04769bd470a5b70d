"""Command-line verification harness.

One binary, one suite per --command value.  Each suite runs its checks,
prints an aligned table, optionally writes a versioned JSON report, and
exits 0 iff every residual met its tolerance.  This is the only module that
writes files, and a run writes at most one: its --json report.  The report
times every check itself and keeps the times in a "timing" block apart from
the checks.  A suite that raises DomainError or PoleProximity is recorded
as a failed "<suite>-error" check, and the run goes on to the next suite.
All randomized inputs are drawn from a numpy generator seeded by --seed, and
every other point a check reads is a constant of its suite, so a given
(command, seed) pair reproduces its report byte for byte apart from the
timestamp field and the timing block.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import gl3 as gl3mod
from . import parseval as pv
from .contour import circle_residue, trapezoid_circle
from .errors import DomainError, PoleProximity
from .intertwine import cocycle_check, m_scalar, unitarity_check
from .roots import (RHO_CHECK, RootDatum, association_classes, tau_hat,
                    transporters, truncation_terms)
from .truncation import (DECAY_CUTOFF, eisenstein_fourier, eisenstein_theta,
                         maass_selberg_record)
from .zeta import completed_L, gamma_fn, ratio_L, zeta

# L(0.3 + 2i), by mpmath at 30 digits
L_03_2I = complex(-0.20717261339322476282, 0.043375669082548637421)
# zeta(2) = pi^2/6, and zeta(3) by mpmath at 30 digits
ZETA_VALUES = {2: math.pi ** 2 / 6.0, 3: 1.2020569031595942854}

# The gate of each check, pinned here: no option overrides one.
TOLERANCES = {
    "functional-equation": 1e-10,
    "residue": 1e-8,
    "conjugation": 1e-12,
    "node-stability": 1e-10,
    "lfn": 1e-12,
    "unitarity": 1e-9,
    "cocycle": 1e-9,
    "m-closed-form": 1e-12,
    "combinatorics": 0.0,
    "nmatrix-rank": 1e-9,
    "nmatrix-symmetry": 1e-12,
    "nmatrix-mult": 1e-9,
    "transverse": 1e-6,
    "double-residue": 1e-6,
    "cancellation": 1e-8,
    "volume": 1e-12,
    "maass-selberg": 1e-3,
    "fourier-theta": 1e-11,
    "parseval-gl2": 1e-6,
    "parseval-gl3": 3e-11,
    "kappa-spread": 1e-8,
    "a-form": 1e-6,
    "b-form": 1e-6,
}


@dataclass
class RunConfig:
    command: str = "all"
    seed: int = 42
    json_path: str | None = None


def enc(v):
    """The JSON form of a value: complex as [re, im], numpy scalars as float,
    and lists and tuples element by element."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [enc(x) for x in v]
    return v


@dataclass
class CheckRecord:
    name: str
    anchor: str
    expected: object
    computed: object
    residual: float
    tolerance: float
    passed: bool
    wall_ms: float


@dataclass
class VerificationReport:
    config: RunConfig
    records: list[CheckRecord] = field(default_factory=list)
    _mark: float = field(default_factory=time.perf_counter, init=False,
                         repr=False)

    def begin_suite(self):
        """Start the clock of the next check at the start of a suite."""
        self._mark = time.perf_counter()

    def add(self, name: str, anchor: str, expected, computed,
            residual: float, tolerance: float):
        """Record a check, timed since the previous check of its suite or
        since the suite began."""
        now = time.perf_counter()
        self.records.append(CheckRecord(
            name=name, anchor=anchor, expected=expected, computed=computed,
            residual=float(residual), tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
            wall_ms=1000.0 * (now - self._mark)))
        self._mark = now

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "schema": "eisenspec.verification_report/3",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "command": self.config.command,
            "seed": self.config.seed,
            "summary": {
                "total": len(self.records),
                "passed": sum(r.passed for r in self.records),
                "failed": sum(not r.passed for r in self.records),
            },
            "checks": [{
                "name": r.name,
                "anchor": r.anchor,
                "expected": enc(r.expected),
                "computed": enc(r.computed),
                "residual": r.residual,
                "tolerance": r.tolerance,
                "pass": r.passed,
            } for r in self.records],
            "timing": {"wall_ms": [r.wall_ms for r in self.records]},
        }

    def print_table(self, stream=None):
        # sys.stdout is read at call time, so that a redirect_stdout holds
        stream = sys.stdout if stream is None else stream
        width = max([len(r.name) for r in self.records] + [10])
        print(f"{'check':<{width}}  {'residual':>12}  {'tolerance':>12}  status",
              file=stream)
        for r in self.records:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.name:<{width}}  {r.residual:>12.3e}  "
                  f"{r.tolerance:>12.3e}  {status}", file=stream)
        summary = ("all checks passed" if self.all_passed
                   else "SOME CHECKS FAILED")
        print(f"-- {len(self.records)} checks: {summary}", file=stream)


# ------------------------------------------------------------ the suites --

# The points the suites pin, since a run's only inputs are its command and
# seed: where nmatrix reports N's entries; maass-selberg's (s1, s2, T), off
# the diagonal, on it, and s1 > s2 at a lower cut line; and parseval's fixed
# GL(3) width beta and the contour base lam0 of every GL(3) check.
NMATRIX_Z = 0.7j
MAASS_SELBERG_TRIPLES = ((1.2, 1.3, 1.0), (1.25, 1.25, 1.0), (1.4, 1.1, 0.5))
PARSEVAL_BETA = 0.5
PARSEVAL_LAM0 = (1.5, 1.5)


def _direct_L(s):
    """pi^(-s/2) Gamma(s/2) zeta(s) with the public zeta, which sums
    Euler-Maclaurin directly on Re s >= -1: a route independent of
    completed_L, which takes L(1 - s) left of Re 1/2."""
    return np.power(np.pi + 0j, -s / 2.0) * gamma_fn(s / 2.0) * zeta(s)


def suite_zeta(report: VerificationReport, cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    pts = []
    while len(pts) < 200:
        s = complex(rng.uniform(-1, 0.5), rng.uniform(-40, 40))
        if abs(s) > 0.2:
            pts.append(s)
    arr = np.array(pts)
    worst = float(np.max(np.abs(completed_L(arr) - _direct_L(arr))))
    report.add("L-functional-equation-grid",
               "L(s) = L(1-s) equals the direct pi^(-s/2) Gamma(s/2) zeta(s) "
               "on 200 points, Re s in [-1, 1/2)",
               0.0, worst, worst, TOLERANCES["functional-equation"])

    # each pole of L is the other's clearance: 32 nodes at radius 0.3
    radius, nodes = circle = trapezoid_circle(0.3, 1.0)
    res1 = complex(circle_residue(lambda u: completed_L(1.0 + u), circle))
    report.add("L-residue-at-1", "simple pole of L at 1 has residue 1",
               1.0, res1, abs(res1 - 1.0), TOLERANCES["residue"])
    res0 = complex(circle_residue(completed_L, circle))
    report.add("L-residue-at-0", "simple pole of L at 0 has residue -1",
               -1.0, res0, abs(res0 + 1.0), TOLERANCES["residue"])

    rng = np.random.default_rng(cfg.seed + 1)
    draws = [complex(rng.uniform(-2, 3), rng.uniform(0.2, 40))
             for _ in range(60)]
    arr = np.array([s for s in draws if min(abs(s), abs(s - 1)) >= 0.25])
    # ratio_L too: it takes each distinct point of a call once up to
    # conjugation, and reads a point's conjugate as the conjugate of its
    # value, which is bit-exact only because the kernel is exactly
    # conjugation equivariant
    worst = max(float(np.max(np.abs(f(np.conj(arr)) - np.conj(f(arr)))))
                for f in (zeta, completed_L, ratio_L))
    report.add("conjugation-equivariance", "f(conj s) = conj f(s)",
               0.0, worst, worst, TOLERANCES["conjugation"])

    t = np.linspace(-40, 40, 161)
    it = 1j * t[t != 0.0]  # L(it) has its pole at t = 0
    vals = np.abs(_direct_L(it) / completed_L(1.0 + it))
    worst = float(np.max(np.abs(vals - 1.0)))
    report.add("ratio-unimodular-axis", "|L(it)/L(1+it)| = 1, L(it) direct",
               0.0, worst, worst, TOLERANCES["unitarity"])

    twin = circle_residue(lambda u: completed_L(1.0 + u), (radius, 2 * nodes))
    diff = abs(res1 - complex(twin))
    report.add("residue-node-stability", "doubling contour nodes is stable",
               0.0, diff, diff, TOLERANCES["node-stability"])


def suite_lfn(report: VerificationReport, cfg: RunConfig):
    checks = [
        ("zeta(2)", complex(zeta(2.0)), np.pi ** 2 / 6.0),
        ("zeta(0)", complex(zeta(0.0)), -0.5),
        ("L(2)", complex(completed_L(2.0)), np.pi / 6.0),
        ("gamma(1/2)", complex(gamma_fn(0.5)), math.sqrt(np.pi)),
        ("ratio_L(0)", complex(ratio_L(0.0)), -1.0),
    ]
    for name, got, want in checks:
        err = abs(got - want)
        report.add(name, f"{name} equals its closed form", want, got, err,
                   TOLERANCES["lfn"])
    got = complex(completed_L(0.3 + 2j))
    report.add("L-reflection-pair",
               "L(0.3+2i), reached as L(0.7-2i), equals its mpmath value",
               L_03_2I, got, abs(got - L_03_2I), TOLERANCES["lfn"])


def suite_m_scalar(report: VerificationReport, cfg: RunConfig):
    datum = RootDatum(3)
    W = datum.weyl_group()
    rng = np.random.default_rng(cfg.seed)

    # Five weights, each drawn as (z1, z2) in turn, checked as one cloud.
    draws = np.array([[complex(rng.uniform(1.1, 2.0), rng.uniform(-1, 1))
                       for _ in range(2)] for _ in range(5)])
    lam = datum.weight(tuple(draws.T))
    worst = max(cocycle_check(s, t_el, lam) for s in W for t_el in W)
    report.add("cocycle-all-pairs", "m(st,.) = m(s,t.) m(t,.), 36 pairs x 5 pts",
               0.0, worst, worst, TOLERANCES["cocycle"])

    ys = rng.uniform(-4.0, 4.0, size=(50, 2))
    worst = max(unitarity_check(w, ys) for w in W)
    report.add("unitarity-all-elements", "|m(w, iy)| = 1, 6 elements x 50 pts",
               0.0, worst, worst, TOLERANCES["unitarity"])

    # hand-coded closed forms vs inversion-set product
    sigma = 1.3
    g2 = RootDatum(2)
    lam2 = g2.weight((sigma,))
    w2 = g2.simple_reflection(1)
    got = m_scalar(w2, lam2)
    want = complex(_direct_L(sigma) / completed_L(1 + sigma))
    report.add("gl2-m-closed-form",
               "m(s, sigma rho) = L(sigma)/L(1+sigma), L(sigma) direct",
               want, got, abs(got - want) / abs(want),
               TOLERANCES["m-closed-form"])

    lam3 = datum.weight((1.4, 1.7))
    s3 = gl3mod.named_weyl()["s3"]
    got3 = m_scalar(s3, lam3)
    want3 = complex(ratio_L(1.4) * ratio_L(1.7) * ratio_L(3.1))
    report.add("gl3-m-closed-form",
               "m(w0, .) = ratio(z1) ratio(z2) ratio(z1+z2)",
               want3, got3, abs(got3 - want3) / abs(want3),
               TOLERANCES["m-closed-form"])


def suite_combinatorics(report: VerificationReport, cfg: RunConfig):
    bad = 0.0
    for n in range(2, 6):
        datum = RootDatum(n)
        terms = truncation_terms(datum)
        ok = (all(cls.chamber_count() == cls.w_count() * cls.a_count
                  for cls in association_classes(datum))
              and len(terms) == 2 ** (n - 1)
              and sum(sign for _, sign in terms) == 0)
        bad = max(bad, 0.0 if ok else 1.0)
    report.add("association-counting-gl2-gl5",
               "n(a_P) = w(P) a(class); 2^(n-1) truncation terms",
               0.0, bad, bad, TOLERANCES["combinatorics"])

    datum = RootDatum(3)
    rho = datum.rho()
    ok = (rho.pairing(1) == 1 and rho.pairing(RHO_CHECK) == 2
          and float(rho.inner(rho)) == 2.0)
    report.add("rho-pairings", "<rho, a_check> = 1, <rho, rho_check> = 2",
               True, ok, 0.0 if ok else 1.0, TOLERANCES["combinatorics"])

    p0 = datum.parabolic([])
    p1 = datum.parabolic([1])
    p2 = datum.parabolic([2])
    ok = (len(transporters(p1, p2)) == 1 and len(transporters(p0, p0)) == 6
          and tau_hat(p0, (1.0, 1.0)) and not tau_hat(p0, (0.0, 0.0)))
    report.add("transporters-and-cone", "transporter sizes and cone tests",
               True, ok, 0.0 if ok else 1.0, TOLERANCES["combinatorics"])


def suite_nmatrix(report: VerificationReport, cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    zs = 1j * np.concatenate([[0.0], rng.uniform(-3.0, 3.0, 19)])

    n = gl3mod.n_matrix(NMATRIX_Z)
    entries = [[complex(v) for v in row] for row in n]
    report.add(f"nmatrix-at-z={NMATRIX_Z}", "the nine entries of N(z), rank one",
               "rank one", entries, gl3mod.max_minor(n),
               TOLERANCES["nmatrix-rank"])

    worst = gl3mod.rank_one_residual(zs)
    report.add("nmatrix-rank-one", "all 2x2 minors of N(z) vanish",
               0.0, worst, worst, TOLERANCES["nmatrix-rank"])
    worst = gl3mod.symmetry_residual(zs)
    report.add("nmatrix-symmetry", "n_ij(z) = n_ji(-z)",
               0.0, worst, worst, TOLERANCES["nmatrix-symmetry"])
    worst = gl3mod.multiplicativity_residual(zs)
    report.add("nmatrix-multiplicativity", "n_ij = n_ik conj(n_jk), k = 1, 2",
               0.0, worst, worst, TOLERANCES["nmatrix-mult"])


def suite_residues(report: VerificationReport, cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    L2 = complex(completed_L(2.0))
    zs = 1j * rng.uniform(-2.5, 2.5, 5)

    n = gl3mod.n_matrix(zs)
    worst = 0.0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            got = gl3mod.transverse_residue(i, j, zs)
            want = n[i - 1, j - 1] / L2
            worst = max(worst,
                        float(np.max(np.abs(got - want) / np.abs(want))))
    report.add("transverse-residues", "circle residue x L(2) = n_ij(z)",
               0.0, worst, worst, TOLERANCES["transverse"])

    table = gl3mod.double_residue_table()
    forms = gl3mod.double_residue_closed_forms()
    worst = max(abs(v - f) / abs(f) for (_, _, v), f in zip(table, forms))
    report.add("double-residue-table", "five double residues match closed forms",
               0.0, worst, worst, TOLERANCES["double-residue"])

    cancel = abs(sum(v for (_, pt, v) in table if pt.coeffs != (1.0, 1.0)))
    report.add("double-residue-cancellation",
               "the four fundamental-weight residues sum to zero",
               0.0, cancel, cancel, TOLERANCES["cancellation"])


def suite_volume(report: VerificationReport, cfg: RunConfig):
    for k in (2, 3):
        datum = RootDatum(k)
        factors = gl3mod.volume_factors(datum)
        ok = factors == list(range(2, k + 1))
        value = gl3mod.volume_constant(datum)
        # L(f) = pi^(-f/2) Gamma(f/2) zeta(f), computed outside eisenspec
        closed = math.prod(math.pi ** (-f / 2) * math.gamma(f / 2)
                           * ZETA_VALUES[f] for f in factors)
        report.add(f"volume-gl{k}",
                   f"vol = {'*'.join('L(%d)' % f for f in factors)}",
                   closed, value,
                   abs(value - closed) / abs(closed) + (0.0 if ok else 1.0),
                   TOLERANCES["volume"])


def suite_maass_selberg(report: VerificationReport, cfg: RunConfig):
    for (s1, s2, T) in MAASS_SELBERG_TRIPLES:
        rec = maass_selberg_record(s1, s2, T)
        report.add(f"maass-selberg-{s1}-{s2}-T{T}",
                   "truncated inner product matches the rank-one formula",
                   rec["formula_value"], rec["quadrature_value"],
                   rec["rel_err"], TOLERANCES["maass-selberg"])
    # the two pointwise routes of E on a cloud of D below the decay cutoff,
    # uniform in the hyperbolic area that the inner product integrates over
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(-0.5, 0.5, 200)
    y = 1.0 / rng.uniform(1.0 / DECAY_CUTOFF, 1.0 / np.sqrt(1.0 - x * x))
    worst = 0.0
    for s in (1.05, 1.25, 1.5):
        theta = eisenstein_theta(x, y, s)
        worst = max(worst, float(np.max(
            np.abs(eisenstein_fourier(x, y, s) - theta) / np.abs(theta))))
    report.add("eisenstein-fourier-vs-theta",
               "Fourier-Whittaker E matches the theta-series E on D",
               0.0, worst, worst, TOLERANCES["fourier-theta"])


def suite_parseval(report: VerificationReport, cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    # the contour bases, from a stream of their own so that the profiles do
    # not depend on them: GL(2)'s sigma0 and GL(3)'s second base in [1.05,
    # 2), up to 0.05 from the pole planes z_k = 1
    bases = np.random.default_rng(cfg.seed + 1)
    sigma0 = float(bases.uniform(1.05, 2.0))
    lam0_alt = tuple(float(c) for c in bases.uniform(1.05, 2.0, 2))
    g2 = RootDatum(2)

    worst = 0.0
    for _ in range(5):
        phi = pv.PaleyWienerGaussian.random(g2, rng)
        shifted = pv.shifted_norm_gl2(phi, sigma0)
        axis, res = pv.decomposed_norm_gl2(phi)
        worst = max(worst, abs(shifted - axis - res) / abs(shifted))
    report.add("parseval-gl2",
               f"shifted = axis + |Phi(rho)|^2 / L(2) at sigma0={sigma0:.4f}, "
               "5 profiles", 0.0, worst, worst, TOLERANCES["parseval-gl2"])

    g3 = RootDatum(3)
    fixed = pv.parseval_check_gl3(pv.PaleyWienerGaussian(g3, PARSEVAL_BETA),
                                  PARSEVAL_LAM0, lam0_alt)
    report.add("parseval-gl3-fixed-beta",
               f"decomposition at beta={PARSEVAL_BETA}, "
               f"lam0={list(PARSEVAL_LAM0)}",
               0.0, fixed.residual_rel, fixed.residual_rel,
               TOLERANCES["parseval-gl3"])

    # the fixed profile's report and three drawn ones feed the aggregates
    reps = [fixed] + [pv.parseval_check_gl3(
        pv.PaleyWienerGaussian.random(g3, rng), PARSEVAL_LAM0, lam0_alt)
        for _ in range(3)]
    worst_resid = max(max(rep.residual_rel, abs(rep.shifted_alt - rep.shifted)
                          / abs(rep.shifted)) for rep in reps)
    report.add("parseval-gl3", "shifted = A + B + C at lam0 and lam0_alt="
               f"({lam0_alt[0]:.4f}, {lam0_alt[1]:.4f}), fixed beta and 3 "
               "drawn profiles",
               0.0, worst_resid, worst_resid, TOLERANCES["parseval-gl3"])
    spread = max(max(k) - min(k) for k in ([rep.kappa_B for rep in reps],
                                           [rep.kappa_C for rep in reps]))
    report.add("parseval-kappa-spread",
               "kappa_B, kappa_C identical across the 4 profiles",
               0.0, spread, spread, TOLERANCES["kappa-spread"])
    unity = max(abs(k - 1.0) for rep in reps for k in (rep.kappa_B,
                                                        rep.kappa_C))
    report.add("parseval-kappa-unity", "kappa_B = kappa_C = 1, 4 profiles",
               0.0, unity, unity, TOLERANCES["kappa-spread"])
    worst_aform = max(abs(rep.A_direct - rep.A_symmetric)
                      / max(abs(rep.A_direct), 1e-300) for rep in reps)
    report.add("a-form-equivalence",
               "W-sum A equals (1/6) integral |F|^2, 4 profiles",
               0.0, worst_aform, worst_aform, TOLERANCES["a-form"])
    worst_bform = max(abs(rep.B_direct - rep.B_factored)
                      / max(abs(rep.B_direct), 1e-300) for rep in reps)
    report.add("b-form-equivalence",
               "nine-term B equals its rank-one factored form, 4 profiles",
               0.0, worst_bform, worst_bform, TOLERANCES["b-form"])


SUITES = {
    "zeta": suite_zeta,
    "lfn": suite_lfn,
    "m-scalar": suite_m_scalar,
    "combinatorics": suite_combinatorics,
    "nmatrix": suite_nmatrix,
    "residues": suite_residues,
    "volume": suite_volume,
    "maass-selberg": suite_maass_selberg,
    "parseval": suite_parseval,
}

COMMANDS = (*SUITES, "all")


def run(config: RunConfig) -> VerificationReport:
    """Execute the selected suite(s) and collect a verification report; a
    command that names no suite and is not "all", or a JSON path in a
    directory that does not exist, raises DomainError before any suite
    runs."""
    if config.command not in COMMANDS:
        raise DomainError(f"unknown command {config.command!r}; expected one "
                          f"of {', '.join(COMMANDS)}")
    path = config.json_path
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise DomainError(f"cannot write {path!r}: its directory does not "
                          "exist")
    report = VerificationReport(config)
    names = list(SUITES) if config.command == "all" else [config.command]
    for name in names:
        report.begin_suite()
        try:
            SUITES[name](report, config)
        except (DomainError, PoleProximity) as err:
            report.add(f"{name}-error", f"the {name} suite runs to completion",
                       "no error", f"{type(err).__name__}: {err}", 1.0, 0.0)
    if config.json_path:
        with open(config.json_path, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def _seed(text: str) -> int:
    """--seed: a nonnegative integer, as numpy's default_rng requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eisenspec",
        description="Verification suites for the K-invariant spectral "
                    "decomposition machinery (completed-zeta ratios, root "
                    "combinatorics, residue matrices, truncation formulas).")
    parser.add_argument("--command", choices=COMMANDS, default=RunConfig.command)
    parser.add_argument("--seed", type=_seed, default=RunConfig.seed)
    parser.add_argument("--json", dest="json_path",
                        help="write the verification report as JSON")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        report = run(config_from_args(parser.parse_args(argv)))
    except DomainError as err:
        parser.error(str(err))  # exits 2, as for a bad flag
    report.print_table()
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
