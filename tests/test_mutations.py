"""Every check that reads exactly 0 must be able to fail.

A residual of exactly 0 on every seed shows nothing by itself: a check
that compared a value with itself would read the same.  So each such check
of the CLI is run once as it is, where it must pass at 0, and once with one
name it reads rebound to a copy whose values are off by a relative 1e-7,
where it must fail.  Each row runs only the suite of its check.
"""

import pytest

from eisenspec import cli, gl3
from eisenspec.cli import RunConfig, run

# (check, suite, module, name, factor): the check fails once module.name
# returns its values times factor.  A complex factor is needed where the
# check compares a function with its own conjugate mirror, which a real
# factor leaves exact.
MUTATIONS = [
    ("conjugation-equivariance", "zeta", cli, "zeta", 1 + 1e-7j),
    ("zeta(2)", "lfn", cli, "zeta", 1 + 1e-7j),
    ("ratio_L(0)", "lfn", cli, "ratio_L", 1 + 1e-7j),
    ("volume-gl2", "volume", gl3, "completed_L", 1 + 1e-7),
]


def _record(check: str, suite: str) -> cli.CheckRecord:
    record, = [r for r in run(RunConfig(command=suite)).records
               if r.name == check]
    return record


@pytest.mark.parametrize("check, suite, module, name, factor", MUTATIONS,
                         ids=[row[0] for row in MUTATIONS])
def test_exact_check_fails_under_its_mutation(monkeypatch, check, suite,
                                              module, name, factor):
    record = _record(check, suite)
    assert record.passed and record.residual == 0.0
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda s: real(s) * factor)
    assert not _record(check, suite).passed
