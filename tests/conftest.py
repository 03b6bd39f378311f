"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process of the test process behind,
    running or unreaped: every worker an ensemble forks must be waited for
    before the call returns or raises.  Unreaped children are reaped here,
    so the next test does not inherit the failure."""
    yield
    left = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            left.append("a child process still running")
            break
        left.append(f"child process {pid} unreaped (wait status {status})")
    if left:
        pytest.fail("the test left " + "; ".join(left))
