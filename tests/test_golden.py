"""CLI outputs pinned byte for byte against committed golden files.

Four configs are pinned under every subcommand. tiny.cfg is the one
test_09 also runs: one user per cell, every time share 1 and no block
reuse. reuse.cfg adds r = 3, which gives nbr 10 and L 4, so 12
cluster-blocks wrap onto 10 blocks. disk.cfg adds users_per_trial = 150:
crowded cells time-share, with shares from 1/26 to 1. q32.cfg is tiny.cfg
at quadrature_points = 32, where the covariance takes its azimuth factor
from the moment series instead of one phasor per node pair. sweep-rb runs
r = 2, 3, 1, out of order and with the wrapped r = 3, on each; the --r
list overrides the config's r, so the tiny and reuse CSVs agree and only
their meta.txt differs. The tiny goldens were last rewritten when the
one-ring covariance moved to its lag-domain form, which changes
floating-point rounding; the q32 goldens were written when the moment
series came in. Refactors must not move a single output byte.
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
    hapsim sweep-rb --r 2,3,1 --config tests/golden/tiny.cfg \\
        --out tests/golden/sweep_rb
    hapsim sweep-rb --r 2,3,1 --config tests/golden/reuse.cfg \\
        --out tests/golden/reuse/sweep_rb
    hapsim sweep-rb --r 2,3,1 --config tests/golden/disk.cfg \\
        --out tests/golden/disk/sweep_rb
    hapsim heatmap --config tests/golden/tiny.cfg --out tests/golden/heatmap
    hapsim heatmap --config tests/golden/reuse.cfg --out tests/golden/reuse/heatmap
    hapsim heatmap --config tests/golden/disk.cfg --out tests/golden/disk/heatmap
    hapsim run --config tests/golden/q32.cfg --out tests/golden/q32/run
    hapsim sweep-power --powers-dbm 40,46 --config tests/golden/q32.cfg \\
        --out tests/golden/q32/sweep_power
    hapsim sweep-rb --r 2,3,1 --config tests/golden/q32.cfg \\
        --out tests/golden/q32/sweep_rb
    hapsim heatmap --config tests/golden/q32.cfg --out tests/golden/q32/heatmap
"""

import argparse
from pathlib import Path

import pytest

from hapsim import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "run": ["run"],
    "sweep_power": ["sweep-power", "--powers-dbm", "40,46"],
    "sweep_rb": ["sweep-rb", "--r", "2,3,1"],
    "heatmap": ["heatmap"],
}

# config name -> directory holding its <command>/ goldens
CONFIGS = {"tiny": GOLDEN, "reuse": GOLDEN / "reuse", "disk": GOLDEN / "disk",
           "q32": GOLDEN / "q32"}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, tmp_path):
    check_golden("tiny", name, tmp_path)


@pytest.mark.parametrize("config", ["reuse", "disk", "q32"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_on(config, name, tmp_path):
    check_golden(config, name, tmp_path)


def test_every_subcommand_is_pinned():
    # a new subcommand fails here until it has goldens of its own
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {name.replace("_", "-") for name in COMMANDS}
    assert all(argv[0] == name.replace("_", "-") for name, argv in COMMANDS.items())


def check_golden(config, name, tmp_path):
    out = tmp_path / name
    cfg = GOLDEN / f"{config}.cfg"
    argv = COMMANDS[name] + ["--config", str(cfg), "--out", str(out)]
    assert cli.main(argv) == 0
    for file in (f"{name}.csv", "meta.txt"):
        assert (out / file).read_bytes() == (CONFIGS[config] / name / file).read_bytes(), file
