"""Shared fixtures."""

import pytest

import eisenspec.zeta as zeta_module
from eisenspec import intertwine, parseval


def _clear_tables():
    for table in intertwine._TABLES:
        table.cache_clear()


@pytest.fixture(autouse=True)
def fresh_tables():
    """Empty the one-entry tables of the residue checks before each test, so
    that a test which mutates a kernel or the Weyl bookkeeping computes its
    tables under the mutation and reads nothing an earlier test computed.
    A test that mutates after a first read empties them again by calling
    the fixture's value."""
    _clear_tables()
    return _clear_tables


@pytest.fixture
def fresh_r1():
    """R1 = Res_{s=1} ratio_L is cached per root datum: a test that
    mutates the kernel or the circle computes it afresh under the mutation,
    and leaves no mutated value behind.  A test that mutates after a first
    read empties the cache again by calling the fixture's value."""
    clear = parseval._ratio_residue.cache_clear
    clear()
    yield clear
    clear()


@pytest.fixture
def kernel_points(monkeypatch):
    """The Euler-Maclaurin points of every kernel pass from here on, one
    entry per pass: a.size, times b.size on a separable grid.  A ratio_L
    pass takes z and 1 + z, so it counts twice its distinct points.  The
    Laurent constant of L at 1 is computed first, so that its own circle
    is not counted."""
    zeta_module._laurent_c0()
    points = []
    kernel = zeta_module._zeta_em_core

    def counting(a, b, reflect):
        points.append(a.size * (1 if b is None else b.size))
        return kernel(a, b, reflect)

    monkeypatch.setattr(zeta_module, "_zeta_em_core", counting)
    return points

