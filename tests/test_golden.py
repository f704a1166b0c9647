"""CLI outputs pinned byte for byte against committed golden files.

Four configs are pinned under every subcommand, and a fifth under one.
tiny.cfg is the one test_09 also runs: one user per cell, every time
share 1 and no block reuse. reuse.cfg adds r = 3, which gives nbr 10 and
L 4, so 12 cluster-blocks wrap onto 10 blocks. disk.cfg adds
users_per_trial = 150: crowded cells time-share, with shares from 1/26
to 1. q32.cfg is tiny.cfg at quadrature_points = 32; that is a cap, and
its 4x8 array at 2 deg converges at 8 nodes per axis, so it runs 8.
disk10.cfg pins only sweep-power: disk drops at 10 MHz sweep r = 1, 2
and 3, whose layouts share each trial's channel draw; its golden was
written before the sweeps drew a trial's layouts through one shared
draw. sweep-rb runs r = 2, 3, 1, out of order and with the wrapped
r = 3, on the other four; the --r list overrides the config's r, so the tiny
and reuse CSVs agree and only their meta.txt differs. The tiny goldens
were last rewritten when the one-ring covariance moved to its lag-domain
form, which changes floating-point rounding; the q32 CSVs were last
rewritten when quadrature_points became a cap on the converged node
count (the heatmap CSV did not move). Every meta.txt was rewritten when
the config keys quadrature_rule and subsection_rule were removed, which
took two lines out of each and changed its fingerprint; no CSV byte
moved. The run, sweep_power and sweep_rb CSVs of those four configs were
last rewritten when interference moved to one flat term list summed by
np.bincount, with numpy's own sums for the sum rate and np.exp2 for the
sinr column: each value moved by at most 1.4e-15 relative and a stderr
by 3.4e-14; no heatmap CSV, meta.txt or non-float column moved.
Refactors must not move a single output byte.

The bytes hold on one kernel path only. Every golden was written and
last checked on OpenBLAS core SkylakeX (scipy-openblas 0.3.31, built
with DYNAMIC_ARCH) under numpy 2.4.6, whose SIMD dispatch reached
AVX512_SPR (targets X86_V3, X86_V4, AVX512_ICL and AVX512_SPR found over
an X86_V2 baseline), on Python 3.11. Another core or SIMD level rounds
the covariance differently and moves every output that reads a channel
draw, so a mismatch prints the running path next to the recorded one
and the largest relative change per numeric CSV column.

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
    hapsim sweep-power --powers-dbm 40,46 --config tests/golden/disk10.cfg \\
        --out tests/golden/disk10/sweep_power
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
import csv
import io
import math
import re
from pathlib import Path

import pytest

from conftest import kernel_path_line
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
           "q32": GOLDEN / "q32", "disk10": GOLDEN / "disk10"}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, tmp_path):
    check_golden("tiny", name, tmp_path)


@pytest.mark.parametrize("config", ["reuse", "disk", "q32"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_on(config, name, tmp_path):
    check_golden(config, name, tmp_path)


def test_shared_draw_sweep_matches_golden(tmp_path):
    check_golden("disk10", "sweep_power", tmp_path)


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
        got, want = (out / file).read_bytes(), (CONFIGS[config] / name / file).read_bytes()
        assert got == want, mismatch_report(file, got, want)


def column_changes(got: bytes, want: bytes) -> str:
    """Largest |got - want| / |want| per column whose values all read as
    numbers, rows paired in order."""
    new, old = (list(csv.reader(io.StringIO(b.decode()))) for b in (got, want))
    if len(new) != len(old) or new[0] != old[0]:
        return f"header or line count differs ({len(new)} lines, golden {len(old)})"
    number = lambda v: float(re.sub(r"^np\.float64\((.*)\)$", r"\1", v))
    changes = []
    for k, column in enumerate(old[0]):
        try:
            pairs = [(number(a[k]), number(b[k])) for a, b in zip(new[1:], old[1:])]
        except ValueError:  # True/False columns
            continue
        rel = [abs(a - b) / abs(b) if b else (0.0 if a == b else math.inf) for a, b in pairs]
        changes.append(f"{column} {max(rel, default=0.0):.3g}")
    return ", ".join(changes)


def mismatch_report(file: str, got: bytes, want: bytes) -> str:
    lines = [f"{file} differs from its golden", kernel_path_line()]
    if file.endswith(".csv"):
        lines.append("largest relative change per column: " + column_changes(got, want))
    return "\n".join(lines)


def test_mismatch_report():
    # what a failing golden prints: both kernel paths and per-column changes
    want = b"trial,omega,sinr,qos_feasible\n0,np.float64(0.5),2.0,True\n1,0.25,0.0,False\n"
    got = b"trial,omega,sinr,qos_feasible\n0,np.float64(0.5),2.0002,True\n1,0.5,0.0,False\n"
    report = mismatch_report("run.csv", got, want).splitlines()
    assert report[0] == "run.csv differs from its golden"
    assert report[1].endswith("OpenBLAS SkylakeX, numpy SIMD AVX512_SPR recorded")
    assert report[2] == (
        "largest relative change per column: trial 0, omega 1, sinr 0.0001"
    )
    assert column_changes(want + b"2,1,1,True\n", want).startswith("header or line count")
