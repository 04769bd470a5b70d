"""Every check that reads exactly 0 must be able to fail.

A residual of exactly 0 on every seed shows nothing by itself: a check
that compared a value with itself would read the same.  So each such check
of the CLI is run once as it is, where it must pass at 0, and once with one
name it reads rebound to a mutated copy, where it must fail: a copy whose
values are off by a relative 1e-7, or, for the exact combinatorics, one
that drops, negates or empties what the original returns.  Each row runs
only the suite of its check.

Checks that read a small nonzero residual get rows as the mutations that
trip them are found: each passes as it is, and fails once one name it
reads is rebound.  Those checks read the one-entry tables of the residue
checks, which would serve the values computed before the rebinding, so
each row empties them once it has rebound its name.
"""

import pytest

from eisenspec import cli, gl3
from eisenspec.cli import RunConfig, run
from eisenspec.roots import Weight, WeylElement


def _scaled(factor):
    """The replacement whose values are the original's times factor."""
    return lambda real: lambda *args: real(*args) * factor


# (check, suite, owner, name, replacement): the check fails once owner.name
# is rebound to replacement(original).  A complex factor is needed where
# the check compares a function with its own conjugate mirror, which a
# real factor leaves exact.
MUTATIONS = [
    ("conjugation-equivariance", "zeta", cli, "zeta", _scaled(1 + 1e-7j)),
    ("zeta(2)", "lfn", cli, "zeta", _scaled(1 + 1e-7j)),
    ("ratio_L(0)", "lfn", cli, "ratio_L", _scaled(1 + 1e-7j)),
    ("volume-gl2", "volume", gl3, "completed_L", _scaled(1 + 1e-7)),
    ("association-counting-gl2-gl5", "combinatorics", cli,
     "truncation_terms", lambda real: lambda datum: real(datum)[:-1]),
    ("rho-pairings", "combinatorics", Weight, "inner", _scaled(1 + 1e-7)),
    ("transporters-and-cone", "combinatorics", cli, "transporters",
     lambda real: lambda p, q: frozenset()),
]


def _record(check: str, suite: str) -> cli.CheckRecord:
    record, = [r for r in run(RunConfig(command=suite)).records
               if r.name == check]
    return record


@pytest.mark.parametrize("check, suite, owner, name, replacement",
                         MUTATIONS, ids=[row[0] for row in MUTATIONS])
def test_exact_check_fails_under_its_mutation(monkeypatch, check, suite,
                                              owner, name, replacement):
    record = _record(check, suite)
    assert record.passed and record.residual == 0.0
    monkeypatch.setattr(owner, name, replacement(getattr(owner, name)))
    assert not _record(check, suite).passed


# r1 = s1 s2 and r2 = s2 s1 trade inversion sets; sigma_12 and sigma_13
# trade circles
_NAMED = gl3.named_weyl()
_R1_R2 = {_NAMED["r1"]: _NAMED["r2"], _NAMED["r2"]: _NAMED["r1"]}
_SIGMA_12_13 = {(1, 2): (1, 3), (1, 3): (1, 2)}

# (row, check, suite, owner, name, replacement), as in MUTATIONS
TABLE_MUTATIONS = [
    ("cocycle-weyl-action", "cocycle-all-pairs", "m-scalar", WeylElement,
     "act_coords", lambda real: lambda w, *coords: tuple(
         c * (1 + 1e-7) for c in real(w, *coords))),
    ("cocycle-inversion-sets", "cocycle-all-pairs", "m-scalar", WeylElement,
     "inversions", lambda real: lambda w: real(_R1_R2.get(w, w))),
    ("transverse-frames", "transverse-residues", "residues", gl3, "sigma",
     lambda real: lambda i, j: real(*_SIGMA_12_13.get((i, j), (i, j)))),
]


@pytest.mark.parametrize("check, suite, owner, name, replacement",
                         [row[1:] for row in TABLE_MUTATIONS],
                         ids=[row[0] for row in TABLE_MUTATIONS])
def test_check_fails_under_its_mutation(monkeypatch, fresh_tables, check,
                                        suite, owner, name, replacement):
    assert _record(check, suite).passed
    monkeypatch.setattr(owner, name, replacement(getattr(owner, name)))
    fresh_tables()
    assert not _record(check, suite).passed
