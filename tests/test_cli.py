"""Command line front end: list options and the printed summaries."""

import csv
from pathlib import Path

import numpy as np
import pytest

from conftest import deadline
from hapsim import cli

TINY = Path(__file__).parent / "golden" / "tiny.cfg"


class TestListOptions:
    """A bad --powers-dbm, --r or --workers exits 2 with one error line and
    writes nothing, as a bad config key does. A power whose rho over- or
    underflows (4000 dBm overflows the watts, -4000 gives 0 W) is bad."""

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
            ["sweep-rb", "--r", "0"],
            ["sweep-rb", "--r", "x"],
            ["sweep-rb", "--r", "2,2"],
            ["run", "--workers", "0"],
            ["run", "--workers", "-3"],
        ],
        ids=["powers-40,abc", "powers-comma", "powers-nan", "powers-inf",
             "powers-repeat", "powers-4000", "powers--4000", "r-0", "r-x", "r-repeat", "workers-0", "workers--3"],
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
        rows, summary = run_cli(
            ["sweep-power", "--powers-dbm", "46,40"], tmp_path / "sp", capsys
        )
        assert summary[0] == "bandwidth 1.8 MHz, 2 trials per point"
        assert [line.split()[0] for line in summary[1:]] == ["40.0", "46.0"]
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


def test_quadrature_rule_reaches_the_run(tmp_path, capsys):
    # the config key, not only a keyword argument, selects the rule
    midpoint = tmp_path / "midpoint.cfg"
    midpoint.write_text(TINY.read_text() + "quadrature_rule = midpoint\n")
    outputs = {}
    for name, config in (("gauss", TINY), ("midpoint", midpoint)):
        out = tmp_path / name
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        meta = (out / "meta.txt").read_text().splitlines()
        assert f"quadrature_rule = {name}" in meta
        outputs[name] = (out / "run.csv").read_bytes()
    capsys.readouterr()
    assert outputs["midpoint"] != outputs["gauss"]


class TestSubsectionRule:
    """subsection_rule = division from the config, through cli.main."""

    def run(self, tmp_path, name, text):
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        out = tmp_path / name
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
        return code, out

    def test_division_equals_square_when_square(self, tmp_path, capsys):
        # 10 MHz, r = 2: nbr // r = 25 is square, so both rules give L = 25
        base = "bandwidth = 10e6\nr = 2\nquadrature_points = 2\ntrials = 1\n"
        outputs = {}
        for rule in ("square", "division"):
            code, out = self.run(tmp_path, rule, base + f"subsection_rule = {rule}\n")
            assert code == 0
            outputs[rule] = (
                (out / "run.csv").read_bytes(), (out / "meta.txt").read_text().splitlines()
            )
        capsys.readouterr()
        assert outputs["division"][0] == outputs["square"][0]
        square, division = outputs["square"][1], outputs["division"][1]
        assert len(square) == len(division)
        differ = [a.split(" = ")[0] for a, b in zip(square, division) if a != b]
        assert differ == ["subsection_rule", "fingerprint"]

    def test_division_rejects_a_non_square(self, tmp_path, capsys):
        # 10 MHz, r = 1: nbr // r = 50 is not a square
        code, out = self.run(
            tmp_path, "division", "bandwidth = 10e6\nr = 1\nsubsection_rule = division\n"
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()
