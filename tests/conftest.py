"""Shared pytest plumbing.

The acceptance suite (test_acceptance.py) appends one line per checked
claim to ACCEPTANCE_REPORTS; the terminal-summary hook prints them in a
dedicated section so the verdicts are visible even on a fully green run.
`deadline` bounds a call's wall-clock time, so a hang fails a test
instead of stalling the run.
"""

import signal
from contextlib import contextmanager

ACCEPTANCE_REPORTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_REPORTS:
        return
    terminalreporter.section("acceptance report")
    for line in ACCEPTANCE_REPORTS:
        terminalreporter.write_line(line)


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time pass.

    Uses SIGALRM, so it interrupts Python code (a spinning loop), not a
    single long call into native code.
    """
    def expire(_signum, _frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
