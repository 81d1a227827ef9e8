"""Shared test fixtures."""

import pytest

from repro import reset_caches


@pytest.fixture
def fresh_caches():
    """Run the test from the process's cold state: every registered
    process-wide memo is cleared before and after it.

    Opt-in, not autouse: most tests rely on the warm caches earlier
    tests leave behind.
    """
    reset_caches()
    yield
    reset_caches()
