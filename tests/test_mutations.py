"""Every check that reads exactly 0 must be able to fail.

A residual of exactly 0 on every seed shows nothing by itself: a check
that compared a value with itself would read the same.  So each such check
of the CLI is run once as it is, where it must pass at 0, and once with one
name it reads rebound to a mutated copy, where it must fail: a copy whose
values are off by a relative 1e-7, or, for the exact combinatorics, one
that drops, negates or empties what the original returns.  Each row runs
only the suite of its check.
"""

import pytest

from eisenspec import cli, gl3
from eisenspec.cli import RunConfig, run
from eisenspec.roots import Weight


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
