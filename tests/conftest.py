"""Shared fixtures."""

import pytest

from eisenspec import intertwine


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
