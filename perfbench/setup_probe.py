"""Set-up probe: run the hapsim CLI until its first trial starts, then stop.

    python3 perfbench/setup_probe.py <hapsim CLI arguments>

Prints ``first-trial`` the moment ``hapsim.harness.prepare_trial`` is first
called and exits without running it. The caller times the interval from
starting this process to reading that line: interpreter start, the hapsim
and numpy imports, argument and config parsing and ``resolve()``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hapsim.cli  # noqa: E402
import hapsim.harness  # noqa: E402


class FirstTrial(Exception):
    pass


def _stop(*_args, **_kwargs):
    raise FirstTrial


hapsim.harness.prepare_trial = _stop
try:
    hapsim.cli.main(sys.argv[1:])
except FirstTrial:
    print("first-trial", flush=True)
else:
    sys.exit("setup probe: the command finished without starting a trial")
