"""The benchmark's bindings, hooks and reference values still fit the program.

perfbench/run.py wraps names that hapsim.cli and hapsim.harness bind and
reads counters from their arguments. A refactor that moves one of those
names or changes an argument the hooks read fails here, in the unit suite,
instead of only when the benchmark runs. So does a change that moves the
benchmark's seed-42 means off perfbench/reference.json.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import hapsim.cli
import hapsim.harness

ROOT = Path(__file__).resolve().parent.parent
TINY = ROOT / "tests" / "golden" / "tiny.cfg"
DISK = ROOT / "tests" / "golden" / "disk.cfg"

COMMANDS = {
    "run": ["run"],
    "sweep_power": ["sweep-power", "--powers-dbm", "40,46"],
}


@pytest.fixture(scope="module")
def perfbench():
    name = "perfbench_run"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


# spans a prepared trial enters exactly once, whatever its placement
ONCE_PER_TRIAL = (
    "harness.place_and_cluster", "allocation.cluster_users",
    "allocation.assign_resource_blocks", "channel.large_scale_fading",
    "channel.los_channel", "channel.correlation_matrices", "channel.sample_channel",
    "rate.build_cluster_precoders", "dofgrid.locate",
)


def run_commands(out_dir, config=TINY, commands=COMMANDS):
    outputs = {}
    for name, argv in commands.items():
        out = out_dir / name
        # looked up at call time, so a traced run goes through the wrapper
        assert hapsim.cli.main(argv + ["--config", str(config), "--out", str(out)]) == 0
        outputs[name] = (out / f"{name}.csv").read_bytes()
    return outputs


def test_span_coverage(perfbench):
    perfbench.check_span_coverage()


def test_traced_run_matches_untraced(perfbench, tmp_path, capsys):
    tracer = perfbench.Tracer()
    tracer.install()
    users_args = []  # evaluate_objective's first argument, call by call
    traced_objective = hapsim.harness.evaluate_objective

    def spy(users, *args, **kwargs):
        users_args.append(users)
        return traced_objective(users, *args, **kwargs)

    hapsim.harness.evaluate_objective = spy  # the tracer restores the original
    try:
        traced = run_commands(tmp_path / "traced")
    finally:
        tracer.uninstall()
    untraced = run_commands(tmp_path / "untraced")
    capsys.readouterr()
    assert traced == untraced
    assert tracer.counts["matrices"] > 0
    assert tracer.counts["objective_users"] > 0
    assert tracer.counts["max_group_size"] > 0
    for holder, attr, _defining in perfbench.SPANS:
        assert not hasattr(getattr(sys.modules[holder], attr), "__wrapped__")
    # what --trace 1 predicts and its hooks assume: one covariance call per
    # prepared trial, one evaluate_trial per power point, and one users
    # object per prepared trial, handed to every point of that trial
    stats = tracer.stats
    prepared = stats["harness.prepare_trial"].calls
    assert prepared == 2 + 2  # run: 2 trials; sweep-power: 2 trials, one r
    assert stats["channel.correlation_matrices"].calls == prepared
    assert stats["harness.evaluate_trial"].calls == 2 * 1 + 2 * 2  # 40, 46 dBm
    assert len(users_args) == stats["rate.evaluate_objective"].calls == 6
    assert len({id(users) for users in users_args}) == prepared
    runs = [users_args[0], users_args[1]] + [users_args[2]] * 2 + [users_args[4]] * 2
    assert all(a is b for a, b in zip(users_args, runs))
    # one user per grid cell: placement, fading, draw, clustering and
    # precoders once per prepared trial, the allocator once per point
    for name in ONCE_PER_TRIAL + ("dofgrid.cell_center",):
        assert stats[name].calls == prepared, name
    assert stats["geometry.drop_users"].calls == stats["geometry.user_angles"].calls == 0
    assert stats["allocation.min_power_coefficients"].calls == 6
    assert (stats["allocation.fill_remaining_power"].calls
            + stats["allocation.scaled_min_power"].calls) == 6


def test_traced_disk_drops_place_once_per_trial(perfbench, tmp_path, capsys):
    # users_per_trial drops: the disk draw and its angles replace the
    # cell centres, once per prepared trial
    tracer = perfbench.Tracer()
    tracer.install()
    try:
        run_commands(tmp_path, DISK, {"run": ["run"]})
    finally:
        tracer.uninstall()
    capsys.readouterr()
    stats = tracer.stats
    prepared = stats["harness.prepare_trial"].calls
    assert prepared == 2
    for name in ONCE_PER_TRIAL + ("geometry.drop_users", "geometry.user_angles"):
        assert stats[name].calls == prepared, name
    assert stats["dofgrid.cell_center"].calls == 0


def test_traced_layouts_draw_covariances_once_each(perfbench, tmp_path, capsys):
    # --trace 1 predicts one covariance call per prepared trial, so only a
    # covariance shared across layouts would break its prediction. The draw
    # may be shared: disk drops at 10 MHz give r = 1, 2 and 3 equal draw
    # inputs, and the three layouts of the trial draw once
    config = tmp_path / "layouts.cfg"
    config.write_text(
        "bandwidth = 10e6\nusers_per_trial = 150\nquadrature_points = 4\ntrials = 1\n"
    )
    tracer = perfbench.Tracer()
    tracer.install()
    try:
        run_commands(tmp_path, config,
                     {"sweep_power": ["sweep-power", "--powers-dbm", "40"]})
    finally:
        tracer.uninstall()
    capsys.readouterr()
    stats = tracer.stats
    assert stats["harness.prepare_trial"].calls == 3  # one trial, r = 1, 2, 3
    assert stats["channel.correlation_matrices"].calls == 3
    assert stats["channel.sample_channel"].calls == 1


@pytest.mark.parametrize("workload", ["ordering-sweep", "run-q32", "disk-drop"])
def test_reference_means_hold(perfbench, workload, tmp_path):
    # the benchmark's seed-42 pass against perfbench/reference.json: a
    # change that would make the benchmark report correct: false fails here
    reference = json.loads(perfbench.REFERENCE_FILE.read_text())[workload]
    check = perfbench.Check()
    runner = perfbench.Runner(perfbench.WORKLOADS[workload], tmp_path)
    try:
        result = runner.run_pass(perfbench.REFERENCE_SEED, check)
    finally:
        runner.close()
    perfbench.compare_reference(result, reference, check)
    assert check.attempted > 0
    assert check.failed == 0, check.problems
