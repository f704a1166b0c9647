"""Shared pytest plumbing.

The acceptance suite (test_acceptance.py) appends one line per checked
claim to ACCEPTANCE_REPORTS; the terminal-summary hook prints them in a
dedicated section so the verdicts are visible even on a fully green run.
`deadline` bounds a call's wall-clock time, so a hang fails a test
instead of stalling the run. `run_capped` runs the CLI in a child process
whose address space is capped, so a run that asks for too much memory
fails there at once instead of taking it from the machine, and a child
that outlives its time limit fails the test. `kernel_path_line` names the
running and the recorded kernel path for a test whose bytes differ.
"""

import ctypes
import os
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

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
CHILD_SECONDS = 120  # wall time run_capped's child may take


def run_capped(argv: list[str], out_dir: Path) -> tuple[int, list[str], list[str]]:
    """Run `python -m hapsim *argv` on this checkout's src/ in a child
    process with RLIMIT_AS at CHILD_ADDRESS_SPACE.

    The limit is set in the child (preexec_fn), so it never binds the test
    process. A child still running after CHILD_SECONDS is killed and the
    test fails. Returns the exit code, the stderr lines and the sorted
    names in out_dir (none when it does not exist).
    """
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE,) * 2)

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    try:
        proc = subprocess.run([sys.executable, "-m", "hapsim", *argv], env=env,
                              capture_output=True, text=True, preexec_fn=cap,
                              timeout=CHILD_SECONDS)
    except subprocess.TimeoutExpired:
        raise pytest.fail.Exception(
            f"hapsim {' '.join(argv)} ran past its {CHILD_SECONDS} s limit", pytrace=False
        ) from None
    files = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
    return proc.returncode, proc.stderr.splitlines(), files


# (OpenBLAS core, numpy SIMD level) the goldens and pinned digests were written on
RECORDED_KERNEL_PATH = ("SkylakeX", "AVX512_SPR")


def kernel_path() -> tuple[str, str]:
    """This process's OpenBLAS core and numpy's highest SIMD dispatch
    target found on the CPU; "unknown" where the build does not say."""
    core = simd = "unknown"
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                core = corename().decode()
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)][-1]
    except (ImportError, IndexError):
        pass
    return core, simd


def kernel_path_line() -> str:
    """The running and the recorded kernel path, for a byte mismatch."""
    core, simd = kernel_path()
    return (f"kernel path: OpenBLAS {core}, numpy SIMD {simd} running; "
            f"OpenBLAS {RECORDED_KERNEL_PATH[0]}, numpy SIMD {RECORDED_KERNEL_PATH[1]} recorded")
