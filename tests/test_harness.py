from dataclasses import replace

import numpy as np
import pytest

from hapsim.channel import composite_steering
from hapsim.config import ScenarioConfig
from hapsim.dofgrid import orthogonality_defect
from hapsim.harness import (
    _fmt,
    dbm_to_watts,
    evaluate_trial,
    figure_r_values,
    heatmap,
    place_and_cluster,
    prepare_trial,
    run,
    run_trial,
    sweep_power,
    sweep_rb,
    trial_rng,
)

FAST = dict(quadrature_points=4, trials=2, seed=42)


def fast_cfg(**kw):
    merged = {**FAST, **kw}
    return ScenarioConfig(**merged).resolve()


class TestPlumbing:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(40.0) == pytest.approx(10.0)

    def test_figure_r_values(self):
        assert figure_r_values(ScenarioConfig().resolve()) == (1, 2, 3)
        assert figure_r_values(ScenarioConfig(bandwidth=20e6).resolve()) == (1, 2, 3, 4, 6)
        assert figure_r_values(ScenarioConfig(bandwidth=5e6, r=2).resolve()) == (2,)

    def test_trial_rng_streams(self):
        a = trial_rng(42, 0).random(4)
        b = trial_rng(42, 0).random(4)
        c = trial_rng(42, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPlacement:
    def test_full_occupancy_fills_every_cell(self):
        cfg = fast_cfg()
        served, unserved, _ = place_and_cluster(cfg, cfg.seed, 0)
        assert unserved == 0
        assert len(served) == cfg.effective_users()
        cells = {(c.sector, c.section, c.subsection) for _, _, _, c in served}
        assert len(cells) == len(served)  # one user per cell

    def test_cell_mode_user_geometry(self):
        cfg = fast_cfg()
        served, _, _ = place_and_cluster(cfg, cfg.seed, 0)
        for _uid, distance, ang, _cell in served:
            # distance consistent with the elevation row: d = h / sin(theta)
            assert distance == pytest.approx(
                cfg.haps_altitude / np.sin(ang.elevation), rel=1e-9
            )
            assert ang.mu_h == pytest.approx(np.cos(ang.elevation), abs=1e-12)

    def test_disk_mode_count(self):
        cfg = fast_cfg(users_per_trial=40)
        served, unserved, _ = place_and_cluster(cfg, cfg.seed, 0)
        assert len(served) + unserved == 40

    def test_determinism(self):
        cfg = fast_cfg()
        a, _, _ = place_and_cluster(cfg, cfg.seed, 1)
        b, _, _ = place_and_cluster(cfg, cfg.seed, 1)
        assert [(u, d, ang, c) for u, d, ang, c in a] == [
            (u, d, ang, c) for u, d, ang, c in b
        ]


class TestRunTrial:
    def test_repeatable(self):
        cfg = fast_cfg()
        a = run_trial(cfg, cfg.seed, 0)
        b = run_trial(cfg, cfg.seed, 0)
        assert a == b

    def test_zero_users(self):
        cfg = fast_cfg(users_per_trial=0)
        rec = run_trial(cfg, cfg.seed, 0)
        assert rec.sum_rate_bps == 0.0
        assert rec.users == ()

    def test_single_user_closed_form(self):
        cfg = fast_cfg(users_per_trial=1, p_max=100.0)
        state = prepare_trial(cfg, cfg.seed, 0)
        rec = evaluate_trial(state, cfg.p_max, cfg.p_total)
        assert len(rec.users) == 1
        row = rec.users[0]
        u = state.users[0]
        v = composite_steering(u.angles.mu_phi, u.angles.mu_h, cfg.array_config())
        se = np.log2(1 + cfg.rho() * row.omega * abs(np.vdot(u.channel, v)) ** 2)
        assert row.spectral_efficiency == pytest.approx(se, rel=1e-12)
        assert row.rate_bps == pytest.approx(cfg.r * cfg.bw_rb * se, rel=1e-12)

    def test_infeasible_flagged_not_fatal(self):
        cfg = fast_cfg(p_max=1e-3)  # far below the QoS floor power
        rec = run_trial(cfg, cfg.seed, 0)
        assert not rec.qos_feasible
        assert rec.sum_rate_bps > 0.0

    def test_sum_matches_user_rows(self):
        cfg = fast_cfg()
        rec = run_trial(cfg, cfg.seed, 0)
        assert rec.sum_rate_bps == pytest.approx(
            sum(u.rate_bps for u in rec.users), rel=1e-12
        )

    @pytest.mark.parametrize("dbm", [46.0, 50.0])
    def test_budget_is_one_pool_over_all_sectors(self, dbm):
        # a per-sector budget would let the six sectors spend 6 * p_total
        cfg = fast_cfg()
        state = prepare_trial(cfg, cfg.seed, 0)
        p = dbm_to_watts(dbm)
        rec = evaluate_trial(state, p, p)
        assert rec.qos_feasible
        assert {u.cell.sector for u in rec.users} == set(range(1, cfg.n_sectors + 1))
        assert p * sum(u.omega for u in rec.users) == pytest.approx(p, rel=1e-9)


class TestRunCsv:
    HEADER = (
        "trial,user,sector,section,subsection,time_share,omega,sinr,"
        "spectral_efficiency_bits_hz,rate_bps,sum_rate_bps,qos_feasible,unserved_users"
    )

    def test_header_and_shape(self, tmp_path):
        cfg = fast_cfg()
        records = run(cfg, out_dir=tmp_path)
        text = (tmp_path / "run.csv").read_text().splitlines()
        assert text[0] == self.HEADER
        assert len(text) == 1 + sum(len(r.users) for r in records)
        assert (tmp_path / "meta.txt").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = fast_cfg()
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/run.csv").read_bytes() == (tmp_path / "b/run.csv").read_bytes()
        assert (tmp_path / "a/meta.txt").read_bytes() == (tmp_path / "b/meta.txt").read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        cfg = fast_cfg()
        run(cfg, out_dir=tmp_path / "w1", workers=1)
        run(cfg, out_dir=tmp_path / "w2", workers=2)
        assert (tmp_path / "w1/run.csv").read_bytes() == (tmp_path / "w2/run.csv").read_bytes()

    def test_numpy_floats_written_as_plain_numbers(self):
        assert _fmt(np.float64(0.1)) == "0.1"
        assert _fmt(np.float32(0.5)) == "0.5"
        assert _fmt(0.1) == "0.1"
        assert _fmt(np.int64(3)) == "3"
        assert _fmt(True) == "True"

    def test_meta_has_fingerprint(self, tmp_path):
        cfg = fast_cfg()
        run(cfg, out_dir=tmp_path)
        meta = (tmp_path / "meta.txt").read_text()
        assert f"fingerprint = {cfg.fingerprint()}" in meta
        assert "command = run" in meta


class TestSweepPower:
    def test_single_point_mean_is_trial_mean(self, tmp_path):
        cfg = fast_cfg(trials=1)
        rows = sweep_power(cfg, [40.0], out_dir=tmp_path)
        by_r = {row["r"]: row for row in rows}
        direct = run_trial(replace(cfg, r=2).resolve(), cfg.seed, 0)
        assert by_r[2]["mean_sum_rate_bps"] == pytest.approx(direct.sum_rate_bps)
        assert by_r[2]["stderr"] == 0.0

    def test_figure_curves_and_columns(self, tmp_path):
        cfg = fast_cfg(trials=1)
        sweep_power(cfg, [38.0, 40.0], out_dir=tmp_path)
        lines = (tmp_path / "sweep_power.csv").read_text().splitlines()
        assert lines[0] == "p_max_dbm,L,r,mean_sum_rate_bps,stderr"
        body = [ln.split(",") for ln in lines[1:]]
        assert len(body) == 2 * 3  # two powers, three r values
        assert {row[1] for row in body} == {"49", "25", "16"}
        # sorted by power then r
        assert [row[0] for row in body[:3]] == ["38.0"] * 3

    def test_mean_over_trials(self, tmp_path):
        cfg = fast_cfg(trials=3)
        rows = sweep_power(cfg, [40.0])
        per_trial = [
            run_trial(replace(cfg, r=1).resolve(), cfg.seed, t).sum_rate_bps
            for t in range(3)
        ]
        row = next(r for r in rows if r["r"] == 1)
        assert row["mean_sum_rate_bps"] == pytest.approx(np.mean(per_trial))


class TestSweepRb:
    def test_l_column(self, tmp_path):
        cfg = fast_cfg(trials=1)
        rows = sweep_rb(cfg, [1, 2, 3], out_dir=tmp_path)
        ls = {(row["r"], row["L"]) for row in rows}
        assert ls == {(1, 49), (2, 25), (3, 16)}

    def test_empty_r_list(self, tmp_path):
        cfg = fast_cfg(trials=1)
        rows = sweep_rb(cfg, [], out_dir=tmp_path)
        assert rows == []
        lines = (tmp_path / "sweep_rb.csv").read_text().splitlines()
        assert lines == ["r,L,trial,user,rate_bps"]


def pairwise_defects(cfg, ids):
    """Reference heatmap: one orthogonality_defect call per ordered pair."""
    served, _, _ = place_and_cluster(cfg, cfg.seed, 0)
    angles = {uid: ang for uid, _, ang, _ in served}
    acfg = cfg.array_config()
    return np.array([
        [orthogonality_defect(angles[ua], angles[ub], acfg) for ub in ids]
        for ua in ids
    ])


class TestHeatmap:
    def test_matches_orthogonality_defect(self, tmp_path):
        cfg = fast_cfg()
        ids, matrix = heatmap(cfg, out_dir=tmp_path)
        assert len(ids) >= 2
        assert np.all(np.diag(matrix) == 1.0)
        assert np.array_equal(matrix, pairwise_defects(cfg, ids))

    @pytest.mark.parametrize("overrides", [
        {"users_per_trial": 1200},  # crowded disk drop: one 100+ member group
        {"m_y": 8},
    ])
    def test_broadcast_equals_pairwise_loop(self, overrides):
        cfg = fast_cfg(**overrides)
        ids, matrix = heatmap(cfg)
        assert len(ids) >= 2
        assert np.array_equal(matrix, pairwise_defects(cfg, ids))

    def test_csv_diagonal_exact(self, tmp_path):
        cfg = fast_cfg()
        ids, _ = heatmap(cfg, out_dir=tmp_path)
        lines = (tmp_path / "heatmap.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "user"
        first = lines[1].split(",")
        assert first[1] == "1.0"

    def test_no_multiuser_cluster(self, tmp_path):
        cfg = fast_cfg(users_per_trial=1)
        ids, matrix = heatmap(cfg, out_dir=tmp_path)
        assert ids == [] and matrix.size == 0
        lines = (tmp_path / "heatmap.csv").read_text().splitlines()
        assert lines == ["note", "no cluster holds more than one user"]
