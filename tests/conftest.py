"""Shared pytest plumbing.

The acceptance suite (test_acceptance.py) appends one line per checked
claim to ACCEPTANCE_REPORTS; the terminal-summary hook prints them in a
dedicated section so the verdicts are visible even on a fully green run.
`deadline` bounds a call's wall-clock time, so a hang fails a test
instead of stalling the run. `run_capped` runs the CLI in a child process
whose address space is capped, so a run that asks for too much memory
fails there at once instead of taking it from the machine.
"""

import os
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

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


CHILD_ADDRESS_SPACE = 3 * 1024 ** 3  # bytes, RLIMIT_AS of run_capped's child


def run_capped(argv: list[str], out_dir: Path) -> tuple[int, list[str], list[str]]:
    """Run `python -m hapsim *argv` on this checkout's src/ in a child
    process with RLIMIT_AS at CHILD_ADDRESS_SPACE.

    The limit is set in the child (preexec_fn), so it never binds the test
    process. Returns the exit code, the stderr lines and the sorted names
    in out_dir (none when it does not exist).
    """
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE,) * 2)

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "hapsim", *argv], env=env,
                          capture_output=True, text=True, preexec_fn=cap, timeout=120)
    files = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
    return proc.returncode, proc.stderr.splitlines(), files
