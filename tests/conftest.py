"""A wall-clock bound on every test: a test that hangs fails after
``TEST_SECONDS`` instead of running until its process is killed."""

import signal

import pytest

# well above the slowest test and the subprocess tests' own 120 s timeouts
TEST_SECONDS = 300


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):  # no alarm clock on this platform
        return (yield)

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran longer than {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
