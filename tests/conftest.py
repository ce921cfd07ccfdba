"""Shared test configuration: a fixed, derandomized hypothesis profile, so
every run of the property suites draws the same examples, and a check that
no test leaves a child process behind."""

import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property suites skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "efgtp", derandomize=True, max_examples=150, deadline=None, database=None
    )
    settings.load_profile("efgtp")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which this process still has a child, running or
    exited but unreaped (the full-matrix build forks workers)."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process behind (waitpid gave {left})")
