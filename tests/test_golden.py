"""CLI outputs pinned byte for byte against committed golden files.

The goldens hold the tiny config that test_09 also runs. They were last
rewritten when the one-ring covariance moved to its lag-domain form, which
changes floating-point rounding; refactors must not move a single output
byte. Regenerate them only for a deliberate output change, and say why in
CHANGES.md:

    hapsim run --config tests/golden/tiny.cfg --out tests/golden/run
    hapsim sweep-power --powers-dbm 40,46 --config tests/golden/tiny.cfg \\
        --out tests/golden/sweep_power
"""

from pathlib import Path

import pytest

from hapsim import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "run": ["run"],
    "sweep_power": ["sweep-power", "--powers-dbm", "40,46"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    argv = COMMANDS[name] + ["--config", str(GOLDEN / "tiny.cfg"), "--out", str(out)]
    assert cli.main(argv) == 0
    for file in (f"{name}.csv", "meta.txt"):
        assert (out / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file

