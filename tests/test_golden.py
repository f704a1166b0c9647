"""CLI outputs pinned byte for byte against committed golden files.

Three configs are pinned. tiny.cfg is the one test_09 also runs: one user
per cell, every time share 1 and no block reuse. reuse.cfg adds r = 3,
which gives nbr 10 and L 4, so 12 cluster-blocks wrap onto 10 blocks.
disk.cfg adds users_per_trial = 150: crowded cells time-share, with
shares from 1/26 to 1. The tiny goldens were last rewritten when the
one-ring covariance moved to its lag-domain form, which changes
floating-point rounding; refactors must not move a single output byte.
Regenerate them only for a deliberate output change, and say why in
CHANGES.md:

    hapsim run --config tests/golden/tiny.cfg --out tests/golden/run
    hapsim sweep-power --powers-dbm 40,46 --config tests/golden/tiny.cfg \\
        --out tests/golden/sweep_power
    hapsim run --config tests/golden/reuse.cfg --out tests/golden/reuse/run
    hapsim sweep-power --powers-dbm 40,46 --config tests/golden/reuse.cfg \\
        --out tests/golden/reuse/sweep_power
    hapsim run --config tests/golden/disk.cfg --out tests/golden/disk/run
    hapsim sweep-power --powers-dbm 40,46 --config tests/golden/disk.cfg \\
        --out tests/golden/disk/sweep_power
"""

from pathlib import Path

import pytest

from hapsim import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "run": ["run"],
    "sweep_power": ["sweep-power", "--powers-dbm", "40,46"],
}

# config name -> directory holding its <command>/ goldens
CONFIGS = {"tiny": GOLDEN, "reuse": GOLDEN / "reuse", "disk": GOLDEN / "disk"}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, tmp_path):
    check_golden("tiny", name, tmp_path)


@pytest.mark.parametrize("config", ["reuse", "disk"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_on(config, name, tmp_path):
    check_golden(config, name, tmp_path)


def check_golden(config, name, tmp_path):
    out = tmp_path / name
    cfg = GOLDEN / f"{config}.cfg"
    argv = COMMANDS[name] + ["--config", str(cfg), "--out", str(out)]
    assert cli.main(argv) == 0
    for file in (f"{name}.csv", "meta.txt"):
        assert (out / file).read_bytes() == (CONFIGS[config] / name / file).read_bytes(), file
