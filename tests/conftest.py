"""A time limit on every test, and no child process left behind by one.

Each test, with its setup and teardown, runs under
`faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True)`: a test
that loops instead of failing (a broken exit condition in a hot-path walk,
say) prints every thread's traceback to stderr and ends the run, where it
would otherwise hang the suite.  The limit is far above the slowest test,
which takes under a minute.

After each test, this process must have no child left, running or exited
but not reaped: a scan's forked workers are killed and reaped on every
exit path, and a test that leaves one fails in its teardown.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

TEST_TIME_LIMIT_S = 300

# A copy of the stderr descriptor, taken while output capture is suspended:
# under the default fd capture, descriptor 2 leads into the capture file,
# which dies with the process.
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    try:
        fd = sys.stderr.fileno()
    except (AttributeError, ValueError):
        fd = sys.__stderr__.fileno()
    config.stash[_STDERR_FD] = os.dup(fd)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    file = item.config.stash[_STDERR_FD]
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=file)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"the test left child {pid} unreaped; it exited with wait status {status}")
    pytest.fail("the test left a child process running")
