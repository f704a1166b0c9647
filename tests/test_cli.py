"""Command line front end: list options, the printed summaries and the
--workers pool size."""

import concurrent.futures
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import deadline
from hapsim import cli, harness

TINY = Path(__file__).parent / "golden" / "tiny.cfg"
Q32 = TINY.with_name("q32.cfg")


class TestListOptions:
    """A bad --powers-dbm, --r or --workers exits 2 with one error line and
    writes nothing, as a bad config key does. A power whose rho over- or
    underflows (4000 dBm overflows the watts, -4000 gives 0 W) is bad, and
    so is one whose rho is positive but times a user's gain underflows
    (-3100 dBm: rho about 1e-299, so a QoS floor is infinite)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-power", "--powers-dbm", "40,abc"],
            ["sweep-power", "--powers-dbm", ","],
            ["sweep-power", "--powers-dbm", "nan"],
            ["sweep-power", "--powers-dbm", "inf"],
            ["sweep-power", "--powers-dbm", "40,40.0"],
            ["sweep-power", "--powers-dbm", "4000"],
            ["sweep-power", "--powers-dbm", "40,-4000"],
            ["sweep-power", "--powers-dbm", "-3100"],
            ["sweep-rb", "--r", "0"],
            ["sweep-rb", "--r", "x"],
            ["sweep-rb", "--r", "2,2"],
            ["run", "--workers", "0"],
            ["run", "--workers", "-3"],
            ["sweep-rb", "--r", "-1,2"],
            ["sweep-power", "--powers-dbm", "-4000,40"],
        ],
        ids=["powers-40,abc", "powers-comma", "powers-nan", "powers-inf",
             "powers-repeat", "powers-4000", "powers--4000", "powers--3100", "r-0", "r-x", "r-repeat", "workers-0", "workers--3",
             "r--1,2", "powers--4000,40"],
    )
    def test_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        with deadline(10.0):
            code = cli.main(argv + ["--config", str(TINY), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()


def test_floor_overflow_in_config_is_rejected(tmp_path, capsys):
    # p_max = 1e-313 W passes the rho check, but rho * gain underflows. The
    # other lines overflow the link gains, or underflow the LoS gains to 0
    # (a 4000 dB shadowing spread overflows most draws; at 1.7e308 Hz the
    # path loss itself overflows), or raise a gain above 0 dB (a 300 dB
    # NLoS spread does so on some draw)
    gain = "error: trial 0: carrier_freq, sigma_sf and nlos_penalty_db give "
    for line, error in [
        ("p_max = 1e-313", "error: p_max 1e-313 W: "),
        ("carrier_freq = 1e-300", gain),
        ("nlos_penalty_db = -5000", gain),
        ("sigma_sf = 4, 4000", gain),
        ("carrier_freq = 1e300", gain),
        ("carrier_freq = 1.7e308", gain),
        ("nlos_penalty_db = -3000", gain),
        ("sigma_sf = 4, 300", gain),
    ]:
        config = tmp_path / "bad.cfg"
        config.write_text(TINY.read_text() + line + "\n")
        out = tmp_path / "out"
        with deadline(10.0):
            code = cli.main(["run", "--config", str(config), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(error), line
        assert not out.exists()


class TestQuadratureCap:
    """quadrature_points caps the covariance nodes per axis; below the cap
    the run takes the count at which the covariance has converged."""

    def run(self, text, out, capsys):
        config = out.parent / f"{out.name}.cfg"
        config.write_text(text)
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        return (out / "run.csv").read_bytes()

    def test_past_convergence_changes_nothing(self, tmp_path, capsys):
        # q32.cfg's 4x8 array at 2 deg converges at 8 nodes
        text = Q32.read_text()
        assert "quadrature_points = 32\n" in text
        at_32 = self.run(text, tmp_path / "q32", capsys)
        at_8 = self.run(text.replace("= 32", "= 8"), tmp_path / "q8", capsys)
        assert at_32 == at_8

    def test_wide_spread_runs(self, tmp_path, capsys):
        # the widest spreads allowed converge only at 49 nodes, so the cap
        # is taken
        text = Q32.read_text() + "spread_phi_deg = 180\nspread_theta_deg = 90\n"
        assert self.run(text, tmp_path / "wide", capsys)


class TestQuadratureWarning:
    """A command that draws channels with quadrature_points below the
    converged node count says so in one stderr line; its CSV and meta.txt
    keep their golden bytes. tiny.cfg's 4x8 array at 2 deg converges at 8
    nodes and caps them at 4."""

    WARNING = ("warning: quadrature_points = 4 is below the 8 nodes per axis "
               "at which the covariance converges")

    @pytest.mark.parametrize("name, argv", [
        ("run", ["run"]),
        ("sweep_power", ["sweep-power", "--powers-dbm", "40,46"]),
        ("sweep_rb", ["sweep-rb", "--r", "2,3,1"]),
    ])
    def test_capped_run_warns(self, name, argv, tmp_path, capsys):
        out = tmp_path / name
        assert cli.main(argv + ["--config", str(TINY), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [self.WARNING]
        for f in (f"{name}.csv", "meta.txt"):
            assert (out / f).read_bytes() == (TINY.parent / name / f).read_bytes()

    @pytest.mark.parametrize("config, command", [(Q32, "run"), (TINY, "heatmap")])
    def test_silent(self, config, command, tmp_path, capsys):
        # q32.cfg runs its converged 8 nodes; heatmap draws no channel
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""


def test_no_users_drawn(tmp_path, capsys):
    # a disk drop of zero users draws an empty covariance stack and writes
    # the header alone, as before covariances were kept as lag tables
    config = tmp_path / "zero.cfg"
    config.write_text(TINY.read_text() + "users_per_trial = 0\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "run.csv").read_text() == (
        "trial,user,sector,section,subsection,time_share,omega,sinr,"
        "spectral_efficiency_bits_hz,rate_bps,sum_rate_bps,qos_feasible,unserved_users\n")
    assert (out / "meta.txt").read_text().endswith(
        "users_per_trial = 0\ncommand = run\nfingerprint = a5dacf41076abfb4\n")
    # the other commands run too; sweep-rb's summary line for a layout with
    # no rate sample holds its count alone
    for command in ("sweep-power", "sweep-rb", "heatmap"):
        argv = [command, "--config", str(config), "--out", str(tmp_path / command)]
        assert cli.main(argv) == 0, command
        if command == "sweep-rb":
            assert capsys.readouterr().out.splitlines()[-1] == "  r=2 L=4 n=    0"


def run_cli(argv, out, capsys):
    assert cli.main(argv + ["--config", str(TINY), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    name = {"sweep-power": "sweep_power", "sweep-rb": "sweep_rb"}.get(argv[0], argv[0])
    assert lines[:2] == [f"wrote {out / (name + '.csv')}", f"wrote {out / 'meta.txt'}"]
    return list(csv.DictReader((out / f"{name}.csv").open())), lines[2:]


class TestSummaries:
    def test_run_prints_no_summary(self, tmp_path, capsys):
        _, summary = run_cli(["run"], tmp_path / "run", capsys)
        assert summary == []

    def test_sweep_power_ranking(self, tmp_path, capsys):
        # a list may start with a minus sign, as a separate argument too
        for powers, order in [("46,40", ["40.0", "46.0"]), ("-10,0", ["-10.0", "0.0"])]:
            rows, summary = run_cli(
                ["sweep-power", "--powers-dbm", powers], tmp_path / powers, capsys
            )
            assert summary[0] == "bandwidth 1.8 MHz, 2 trials per point"
            assert [line.split()[0] for line in summary[1:]] == order
            for line, row in zip(summary[1:], rows):
                mbps = float(row["mean_sum_rate_bps"]) / 1e6
                assert f"(L={row['L']},r={row['r']}) {mbps:8.2f}" in line

    def test_sweep_rb_deciles(self, tmp_path, capsys):
        rows, summary = run_cli(["sweep-rb", "--r", "2,1"], tmp_path / "srb", capsys)
        assert summary[0].endswith("per-user rate deciles [Mbit/s]")
        for line, r in zip(summary[1:], ("1", "2")):
            rates = [float(row["rate_bps"]) / 1e6 for row in rows if row["r"] == r]
            fields = line.split()
            assert fields[0] == f"r={r}"
            assert f"n={len(rates):5d}" in line
            deciles = np.quantile(rates, np.arange(0.1, 1.0, 0.1))
            assert fields[-9:] == [f"{d:.3f}" for d in deciles]
        assert len(summary) == 3

    def test_heatmap_mean_defect(self, tmp_path, capsys):
        rows, summary = run_cli(["heatmap"], tmp_path / "hm", capsys)
        matrix = np.array([[float(v) for k, v in row.items() if k != "user"]
                           for row in rows])
        n = len(matrix)
        mean = (matrix.sum() - np.trace(matrix)) / (n * (n - 1))
        assert summary == [
            f"L=4 r=2  fullest cluster {n} users, "
            f"mean off-diagonal orthogonality defect {mean:.4f}"
        ]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def pool_sizes(monkeypatch, tmp_path, capsys, trials, workers):
    """max_workers of every pool a run at --workers asks for; its bytes
    must be those of --workers 1."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    outputs = []
    for n in (workers, 1):
        out = tmp_path / f"w{n}"
        argv = ["run", "--trials", str(trials), "--workers", str(n)]
        assert cli.main(argv + ["--config", str(TINY), "--out", str(out)]) == 0
        outputs.append((out / "run.csv").read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    return RecordingPool.sizes


@pytest.mark.parametrize(
    "trials, workers, cpus, expected",
    [(2, 64, 8, [2]), (5, 64, 3, [3]), (5, 4, 8, [4]), (5, 64, 1, []), (1, 64, 8, [])],
)
def test_workers_clamped_to_tasks_and_cpus(monkeypatch, tmp_path, capsys,
                                           trials, workers, cpus, expected):
    # no pool larger than the task count or the usable CPUs, and none at all
    # where that leaves one process
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert pool_sizes(monkeypatch, tmp_path, capsys, trials, workers) == expected


def test_workers_clamped_to_cpu_count_without_affinity(monkeypatch, tmp_path, capsys):
    # where os has no sched_getaffinity (macOS, Windows), os.cpu_count() bounds the pool
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    assert pool_sizes(monkeypatch, tmp_path, capsys, 5, 64) == [3]


def test_serial_run_loads_no_pool(tmp_path):
    # the process pool module (with multiprocessing, socket and pickle) is
    # imported only where a pool starts, so a serial run never holds it
    argv = ["run", "--workers", "1", "--config", str(TINY), "--out", str(tmp_path)]
    script = (
        "import sys\n"
        "from hapsim import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "run.csv").exists()
