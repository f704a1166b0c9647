import csv
import math
import tracemalloc
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import hapsim.harness
from hapsim.channel import composite_steering
from hapsim.config import ScenarioConfig, load_config
from hapsim.geometry import AngularCoordinates
from hapsim.harness import (
    TrialRecord,
    _layouts_task,
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
    write_csv,
)

from oracles import orthogonality_defect, trial_users

FAST = dict(quadrature_points=4, trials=2, seed=42)


DISK10 = dict(bandwidth=10e6, users_per_trial=150)


def fast_cfg(**kw):
    merged = {**FAST, **kw}
    return ScenarioConfig(**merged)


def cell_count(cfg):
    """Grid cells over all sectors: the full-occupancy user count."""
    return cfg.n_sectors * cfg.section_grid().n_sections * cfg.subsection_grid().l_count


class TestPlumbing:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(40.0) == pytest.approx(10.0)

    def test_figure_r_values(self):
        assert figure_r_values(ScenarioConfig()) == (1, 2, 3)
        assert figure_r_values(ScenarioConfig(bandwidth=20e6)) == (1, 2, 3, 4, 6)
        assert figure_r_values(ScenarioConfig(bandwidth=5e6, r=2)) == (2,)

    def test_trial_rng_streams(self):
        a = trial_rng(42, 0).random(4)
        b = trial_rng(42, 0).random(4)
        c = trial_rng(42, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPlacement:
    # every cell draw lands inside the grid, so none is dropped as unserved
    @pytest.mark.parametrize("trial", range(5))
    @pytest.mark.parametrize("kw", [
        *(dict(bandwidth=10e6, r=r) for r in (1, 2, 3)),
        *(dict(bandwidth=20e6, r=r) for r in (1, 2, 3, 4, 6)),
        dict(m_x=8, m_y=8, n_sectors=2),
    ])
    def test_full_occupancy_fills_every_cell(self, kw, trial):
        cfg = fast_cfg(**kw)
        served, unserved, _ = place_and_cluster(cfg, cfg.seed, trial)
        assert unserved == 0
        assert len(served.user_id) == cell_count(cfg)
        cells = set(zip(served.sector.tolist(), served.section.tolist(),
                        served.subsection.tolist()))
        assert len(cells) == len(served.user_id)  # one user per cell

    def test_cell_mode_user_geometry(self):
        cfg = fast_cfg()
        served, _, _ = place_and_cluster(cfg, cfg.seed, 0)
        for distance, elevation, mu_h in zip(
            served.distance, served.angles.elevation, served.angles.mu_h
        ):
            # distance consistent with the elevation row: d = h / sin(theta)
            assert distance == pytest.approx(
                cfg.haps_altitude / np.sin(elevation), rel=1e-9
            )
            assert mu_h == pytest.approx(np.cos(elevation), abs=1e-12)

    def test_disk_mode_count(self):
        cfg = fast_cfg(users_per_trial=40)
        served, unserved, _ = place_and_cluster(cfg, cfg.seed, 0)
        assert len(served.user_id) + unserved == 40

    def test_determinism(self):
        cfg = fast_cfg()
        a, _, _ = place_and_cluster(cfg, cfg.seed, 1)
        b, _, _ = place_and_cluster(cfg, cfg.seed, 1)
        assert placement_rows(a) == placement_rows(b)

    @pytest.mark.parametrize("seed, trial, kw", [
        (42, 0, {}),
        (7, 3, {}),
        (42, 0, dict(bandwidth=20e6)),
        (7, 3, dict(m_x=8, m_y=8)),
    ], ids=["42-0", "7-3", "20mhz-42-0", "8x8-7-3"])
    def test_disk_layouts_draw_one_scene(self, seed, trial, kw):
        # locate's inside mask reads only the section grid, so disk drops
        # keep the same users, and so draw the same channels, whatever r
        # sets L to: the sweeps share one draw across these layouts
        cfg = fast_cfg(**{"bandwidth": 10e6, "users_per_trial": 150, "trials": 1, **kw})
        states = [prepare_trial(replace(cfg, r=r), seed, trial)
                  for r in figure_r_values(cfg)]
        assert len({s.served.subsection.max() for s in states}) > 1  # the grids differ
        for state in states[1:]:
            assert np.array_equal(state.served.user_id, states[0].served.user_id)
            assert state.channels.tobytes() == states[0].channels.tobytes()


# -- per-user placement loops, the references for the array placement ---------
#
# Each restates the per-user scalar code the array placement replaced, with
# the same floating-point operations in the same order: results must be
# equal bit for bit.


def _axis_index_ref(x, lo, hi, margin, n, width, s):
    tol = 1e-9 * (hi - lo)
    if x < lo - tol or x > hi + tol:
        return None
    grid_lo = lo + margin
    sec = min(max(math.floor((x - grid_lo) / width), 0), n - 1)
    sub = min(max(math.floor((x - grid_lo - sec * width) / (width / s)), 0), s - 1)
    return sec, sub


def _locate_ref(mu_phi, mu_h, g, subgrid, sector):
    """(sector, section, subsection) of one user, None out of coverage."""
    s = subgrid.per_axis
    a = _axis_index_ref(mu_phi, *g.mu_phi_range, g.margin_phi, g.n_phi,
                        g.section_width_phi, s)
    e = _axis_index_ref(mu_h, *g.mu_h_range, g.margin_h, g.n_theta,
                        g.section_width_h, s)
    if a is None or e is None:
        return None
    return (sector, a[0] * g.n_theta + e[0] + 1, a[1] * s + e[1] + 1)


def cell_users_ref(cfg, rng):
    """One user per cell: (uid, distance, angles, cell) per user, unserved 0."""
    g = cfg.section_grid()
    subgrid = cfg.subsection_grid()
    s = subgrid.per_axis
    lo_phi, lo_h = g.origin
    out = []
    uid = 0
    for sector in range(1, cfg.n_sectors + 1):
        for section in range(1, g.n_sections + 1):
            for sub in range(1, subgrid.l_count + 1):
                a_sec, e_sec = divmod(section - 1, g.n_theta)
                a_sub, e_sub = divmod(sub - 1, s)
                c_phi = (lo_phi + a_sec * g.section_width_phi
                         + (a_sub + 0.5) * (g.section_width_phi / s))
                c_h = (lo_h + e_sec * g.section_width_h
                       + (e_sub + 0.5) * (g.section_width_h / s))
                u1, u2 = rng.random(2)
                mu_phi = c_phi + (u1 - 0.5) * subgrid.delta_phi
                mu_h = c_h + (u2 - 0.5) * subgrid.delta_h
                mu_h = min(max(mu_h, 0.0), g.mu_h_range[1])
                sin_el = math.sqrt(max(1.0 - mu_h * mu_h, 1e-12))
                angles = AngularCoordinates(
                    azimuth=math.acos(min(max(mu_phi / sin_el, -1.0), 1.0)),
                    elevation=math.acos(min(mu_h, 1.0)),
                    mu_phi=mu_phi, mu_h=mu_h,
                )
                uid += 1
                out.append((uid, cfg.haps_altitude / sin_el, angles,
                            _locate_ref(mu_phi, mu_h, g, subgrid, sector)))
    return out, 0


def disk_users_ref(cfg, rng):
    """users_per_trial disk drops: served (uid, distance, angles, cell), unserved."""
    count, radius, h = cfg.users_per_trial, cfg.coverage_radius, cfg.haps_altitude
    radii = radius * np.sqrt(rng.random(count))
    azimuths = 2.0 * np.pi * rng.random(count)
    n = cfg.n_sectors
    served, unserved = [], 0
    for uid, (rad, az) in enumerate(zip(radii, azimuths), start=1):
        x, y = float(rad * np.cos(az)), float(rad * np.sin(az))
        sector = min(int((math.atan2(y, x) % (2.0 * np.pi)) // (2.0 * np.pi / n)) + 1, n)
        boresight = (sector - 0.5) * 2.0 * np.pi / n
        r = float(np.hypot(x, y))
        d = float(np.hypot(r, h))
        global_az = float(np.arctan2(y, x)) % (2.0 * np.pi)
        phi = (global_az - boresight + np.pi) % (2.0 * np.pi) - np.pi
        angles = AngularCoordinates(
            azimuth=phi, elevation=float(np.arctan2(h, r)),
            mu_phi=(h / d) * float(np.cos(phi)), mu_h=r / d,
        )
        cell = _locate_ref(angles.mu_phi, angles.mu_h, cfg.section_grid(),
                           cfg.subsection_grid(), sector)
        if cell is None:
            unserved += 1
            continue
        served.append((uid, d, angles, cell))
    return served, unserved


def placement_rows(placement):
    """(uid, distance, (azimuth, elevation, mu_phi, mu_h), cell) per user."""
    a = placement.angles
    return list(zip(
        placement.user_id.tolist(),
        placement.distance.tolist(),
        zip(a.azimuth.tolist(), a.elevation.tolist(), a.mu_phi.tolist(), a.mu_h.tolist()),
        zip(placement.sector.tolist(), placement.section.tolist(),
            placement.subsection.tolist()),
    ))


def reference_rows(served):
    return [
        (uid, dist, (a.azimuth, a.elevation, a.mu_phi, a.mu_h), cell)
        for uid, dist, a, cell in served
    ]


class TestPlacementMatchesLoop:
    """Array placement equals the per-user loops bit for bit: ids,
    distances, angles, cells, the unserved count and the stream after."""

    @staticmethod
    def check(cfg, trial=0):
        served, unserved, rng = place_and_cluster(cfg, cfg.seed, trial)
        ref_rng = trial_rng(cfg.seed, trial)
        loop = cell_users_ref if cfg.users_per_trial is None else disk_users_ref
        ref_served, ref_unserved = loop(cfg, ref_rng)
        assert placement_rows(served) == reference_rows(ref_served)
        assert unserved == ref_unserved
        assert rng.random() == ref_rng.random()
        return served, unserved

    @pytest.mark.parametrize("kw", [
        dict(bandwidth=10e6, r=1),
        dict(bandwidth=10e6, r=3),
        dict(bandwidth=20e6, r=1),
        dict(bandwidth=20e6, r=3),
        dict(bandwidth=10e6, r=2, m_x=8, m_y=8),
    ])
    def test_full_occupancy(self, kw):
        cfg = fast_cfg(**kw)
        served, _ = self.check(cfg)
        assert len(served.user_id) == cell_count(cfg)

    @pytest.mark.parametrize("users", [0, 1, 400, 1200])
    def test_disk_drops(self, users):
        served, unserved = self.check(fast_cfg(users_per_trial=users), trial=3)
        assert len(served.user_id) + unserved == users

    def test_disk_drops_8x8(self):
        self.check(fast_cfg(users_per_trial=400, m_x=8, m_y=8))

    def test_every_drop_outside_the_grid(self, monkeypatch):
        # a grid shifted off every attainable mu_phi serves nobody
        grid = ScenarioConfig.section_grid
        monkeypatch.setattr(
            ScenarioConfig, "section_grid",
            lambda self: replace(grid(self), mu_phi_range=(2.0, 3.0)),
        )
        served, unserved = self.check(fast_cfg(users_per_trial=50))
        assert unserved == 50 and len(served.user_id) == 0

    def test_zero_users_run_writes_header_only(self, tmp_path):
        cfg = fast_cfg(users_per_trial=0)
        records = run(cfg, out_dir=tmp_path / "run")
        assert [len(r.users) for r in records] == [0, 0]
        lines = (tmp_path / "run/run.csv").read_text().splitlines()
        assert lines == [TestRunCsv.HEADER]
        rows = sweep_power(cfg, [40.0, 50.0])
        assert rows and all(row["mean_sum_rate_bps"] == 0.0 for row in rows)


# the per-user columns of a TrialRecord, the fields left out of its ==
COLUMNS = [f.name for f in fields(TrialRecord) if not f.compare]


class TestLayoutsTask:
    def test_disk_layouts_share_one_read_only_draw(self, monkeypatch):
        # three disk-drop layouts of one trial index: the first builds the
        # LoS mean and draws, the others get its read-only channels, and
        # every layout scores as it does prepared alone
        calls = []
        for name in ("los_channel", "sample_channel"):
            def counted(*args, _name=name, _fn=getattr(hapsim.harness, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(hapsim.harness, name, counted)
        cfg = fast_cfg(**DISK10)
        configs = [replace(cfg, r=r) for r in (1, 2, 3)]
        channels = []

        def score(state):
            channels.append(state.channels)
            return evaluate_trial(state, cfg.p_max, cfg.p_total)

        records = _layouts_task(configs, cfg.seed, 0, score)
        assert sorted(calls) == ["los_channel", "sample_channel"]
        assert all(c is channels[0] for c in channels)
        assert not channels[0].flags.writeable
        for cfg_r, rec in zip(configs, records):
            alone = run_trial(cfg_r, cfg.seed, 0)
            assert not prepare_trial(cfg_r, cfg.seed, 0).channels.flags.writeable
            assert rec == alone
            for name in COLUMNS:
                assert np.array_equal(getattr(rec, name), getattr(alone, name)), name


class TestRunTrial:
    def test_repeatable(self):
        cfg = fast_cfg()
        a = run_trial(cfg, cfg.seed, 0)
        b = run_trial(cfg, cfg.seed, 0)
        assert a == b
        for name in COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_zero_users(self):
        cfg = fast_cfg(users_per_trial=0)
        rec = run_trial(cfg, cfg.seed, 0)
        assert rec.sum_rate_bps == 0.0
        assert len(rec.users) == 0

    def test_memory_holds_no_covariance_stack(self):
        # 1200 users on a 4x4 array, whose dense (N, M, M) covariance stack
        # alone takes 4.9 MB. The covariances stay lag tables (0.94 MB),
        # expanded one eigh chunk at a time, so the trial's peak stays
        # under one such stack.
        cfg = ScenarioConfig(bandwidth=20e6, r=1, quadrature_points=2)
        tracemalloc.start()
        try:
            state = prepare_trial(cfg, 42, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, m = state.channels.shape
        assert n == 1200
        assert peak < n * m * m * 16

    def test_memory_builds_lag_tables_per_block(self):
        # 1200 disk drops at 10 MHz on a 4x4 array, 7 nodes per axis: all
        # users' lag tables (n * 49 * 16 B) would take 0.94 MB. Built one
        # block at a time, the peak holds (n, M) complex arrays of 307 KB:
        # the steering rows and the channels throughout, with the LoS mean
        # and the draw's buffers (at most 12 of 64 KiB: one block's tables
        # and the temporaries that build them, the chunk being drawn, the
        # last one, and an eigh call's eigenvectors)
        # while drawing, or with the interference map's temporaries (the
        # precoders, one group size's stacked precoders and gathered
        # channels, at most three such arrays) after the mean is freed;
        # plus 16 per-user floats of placement and fading.
        cfg = ScenarioConfig(bandwidth=10e6, users_per_trial=1200)
        prepare_trial(cfg, 42, 0)  # warm: imports and cached nodes
        tracemalloc.start()
        try:
            state = prepare_trial(cfg, 42, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, m = state.channels.shape
        assert n == 1200
        rows = n * m * 16
        assert peak < 2 * rows + max(rows + 12 * 64 * 1024, 3 * rows) + 16 * 8 * n

    def test_single_user_closed_form(self):
        cfg = fast_cfg(users_per_trial=1, p_max=100.0)
        state = prepare_trial(cfg, cfg.seed, 0)
        rec = evaluate_trial(state, cfg.p_max, cfg.p_total)
        assert len(rec.users) == 1
        [u] = trial_users(state)
        v = composite_steering(u.mu_phi, u.mu_h, cfg.array_config())
        se = np.log2(1 + cfg.rho() * rec.omega[0] * abs(np.vdot(u.channel, v)) ** 2)
        assert rec.spectral_efficiency[0] == pytest.approx(se, rel=1e-12)
        assert rec.rate_bps[0] == pytest.approx(cfg.r * cfg.bw_rb * se, rel=1e-12)

    def test_infeasible_flagged_not_fatal(self):
        cfg = fast_cfg(p_max=1e-3)  # far below the QoS floor power
        rec = run_trial(cfg, cfg.seed, 0)
        assert not rec.qos_feasible
        assert rec.sum_rate_bps > 0.0

    def test_sum_matches_user_rows(self):
        cfg = fast_cfg()
        rec = run_trial(cfg, cfg.seed, 0)
        assert rec.sum_rate_bps == pytest.approx(
            sum(rec.rate_bps.tolist()), rel=1e-12
        )

    @pytest.mark.parametrize("dbm", [46.0, 50.0])
    def test_budget_is_one_pool_over_all_sectors(self, dbm):
        # a per-sector budget would let the six sectors spend 6 * p_total
        cfg = fast_cfg()
        state = prepare_trial(cfg, cfg.seed, 0)
        p = dbm_to_watts(dbm)
        rec = evaluate_trial(state, p, p)
        assert rec.qos_feasible
        assert set(rec.sector.tolist()) == set(range(1, cfg.n_sectors + 1))
        assert p * sum(rec.omega.tolist()) == pytest.approx(p, rel=1e-9)


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

    @pytest.mark.parametrize("entry, kw", [
        (run, {}),
        (partial(sweep_power, powers_dbm=[30.0, 46.0]), {}),
        (sweep_rb, {}),
        (partial(sweep_power, powers_dbm=[30.0, 46.0]), DISK10),
        (sweep_rb, DISK10),
    ], ids=["run", "sweep_power", "sweep_rb", "sweep_power-disk10", "sweep_rb-disk10"])
    def test_worker_count_invariance(self, tmp_path, entry, kw):
        # with two usable CPUs, workers=2 runs a real process pool; its
        # CSV and meta bytes are those of the serial run. On 10 MHz disk
        # drops each pooled task shares one draw across r = 1, 2 and 3
        cfg = fast_cfg(**kw)
        for workers in (1, 2):
            entry(cfg, out_dir=tmp_path / f"w{workers}", workers=workers)
        serial, pooled = sorted((tmp_path / "w1").iterdir()), sorted((tmp_path / "w2").iterdir())
        assert [p.name for p in serial] == [p.name for p in pooled]
        assert len(serial) == 2  # <command>.csv and meta.txt
        for a, b in zip(serial, pooled):
            assert a.read_bytes() == b.read_bytes(), a.name

    @pytest.mark.parametrize("entry", [
        partial(sweep_power, powers_dbm=[30.0, 46.0]), sweep_rb,
    ], ids=["sweep_power", "sweep_rb"])
    def test_only_disk_drops_group_layouts_in_one_task(self, monkeypatch, entry):
        # a task per (layout, trial) at full occupancy, where no draw is
        # shared, keeps --workers spreading as many tasks as there are
        mapped, map_tasks = [], hapsim.harness._map_tasks

        def recorded(fn, tasks, workers):
            mapped.append([len(task[0]) for task in tasks])
            return map_tasks(fn, tasks, workers)

        monkeypatch.setattr(hapsim.harness, "_map_tasks", recorded)
        entry(fast_cfg(bandwidth=10e6))
        entry(fast_cfg(**DISK10))
        assert mapped == [[1] * 6, [3, 3]]  # r = 1, 2, 3 by trials 0, 1

    def test_rows_are_the_record_columns(self, tmp_path):
        # crowded disk drops: shares, omegas and rates differ user to user
        cfg = fast_cfg(users_per_trial=150)
        records = run(cfg, out_dir=tmp_path)
        rows = list(csv.DictReader((tmp_path / "run.csv").open()))
        assert [rec.trial for rec in records] == [0, 1]
        for rec in records:
            state = prepare_trial(cfg, cfg.seed, rec.trial)
            for name in ("sector", "section", "subsection"):
                assert np.array_equal(getattr(rec, name), getattr(state.served, name)), name
            assert np.array_equal(rec.time_share, state.time_share)
            assert np.array_equal(rec.users, state.served.user_id)
            # both are permutation-invariant only if omega, se and rate
            # stay in the same user order as the gains and time shares
            assert np.min(
                np.log2(1.0 + cfg.rho() * rec.omega * state.gain) - cfg.r_min
            ) == pytest.approx(rec.qos_margin_model, rel=1e-12)
            assert np.array_equal(
                rec.rate_bps, rec.time_share * cfg.r * cfg.bw_rb * rec.spectral_efficiency
            )
            mine = [row for row in rows if row["trial"] == str(rec.trial)]
            se = rec.spectral_efficiency.tolist()
            assert [float(row["sinr"]) for row in mine] == (np.exp2(se) - 1.0).tolist()
            for key, name, convert in [
                ("user", "users", int), ("sector", "sector", int),
                ("section", "section", int), ("subsection", "subsection", int),
                ("time_share", "time_share", float), ("omega", "omega", float),
                ("spectral_efficiency_bits_hz", "spectral_efficiency", float),
                ("rate_bps", "rate_bps", float),
            ]:
                assert [convert(row[key]) for row in mine] == getattr(rec, name).tolist(), key
            assert {(row["sum_rate_bps"], row["qos_feasible"], row["unserved_users"])
                    for row in mine} == {
                (repr(rec.sum_rate_bps), str(rec.qos_feasible), str(rec.unserved))
            }

    def test_numpy_floats_written_as_plain_numbers(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b", "c", "d"],
                  [[np.float64(0.1), np.float32(0.5), np.int64(3), True]])
        assert path.read_text().splitlines() == ["a,b,c,d", "0.1,0.5,3,True"]

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
        direct = run_trial(replace(cfg, r=2), cfg.seed, 0)
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
            run_trial(replace(cfg, r=1), cfg.seed, t).sum_rate_bps
            for t in range(3)
        ]
        row = next(r for r in rows if r["r"] == 1)
        assert row["mean_sum_rate_bps"] == pytest.approx(np.mean(per_trial))


class TestSweepRb:
    def test_l_column(self, tmp_path):
        cfg = fast_cfg(trials=1)
        rates = sweep_rb(cfg, [1, 2, 3], out_dir=tmp_path)
        assert list(rates) == [(1, 49), (2, 25), (3, 16)]
        rows = list(csv.DictReader((tmp_path / "sweep_rb.csv").open()))
        for (r, l_count), samples in rates.items():
            assert samples.tolist() == [
                float(row["rate_bps"]) for row in rows
                if (int(row["r"]), int(row["L"])) == (r, l_count)
            ]

    def test_empty_r_list(self, tmp_path):
        cfg = fast_cfg(trials=1)
        assert sweep_rb(cfg, [], out_dir=tmp_path) == {}
        lines = (tmp_path / "sweep_rb.csv").read_text().splitlines()
        assert lines == ["r,L,trial,user,rate_bps"]


class TestOutputMemory:
    # Rows stream from the records to the file, so past one trial's row
    # lists the peak grows with the trial count only by what the entry
    # point keeps: per user row, the record's eight 8-byte columns (64 B),
    # plus 8 B of returned rate for sweep_rb; per trial, the record's
    # object and dict (under 1 KiB), its column arrays' headers (about
    # 9 x 130 B) and the task tuple and list slots around it, under 4 KiB.
    PER_TRIAL = 4096

    @pytest.mark.parametrize("entry, kept", [(run, 64), (sweep_rb, 64 + 8)],
                             ids=["run", "sweep_rb"])
    def test_growth_per_row(self, entry, kept, tmp_path):
        cfg = load_config(Path(__file__).parent / "golden" / "tiny.cfg")
        entry(replace(cfg, trials=1), out_dir=tmp_path)  # warm: imports, caches
        measured = {}
        for trials in (10, 40):
            tracemalloc.start()
            try:
                entry(replace(cfg, trials=trials), out_dir=tmp_path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            csv_lines = (tmp_path / f"{entry.__name__}.csv").read_text().count("\n")
            measured[trials] = peak, csv_lines - 1
        (peak_1, rows_1), (peak_4, rows_4) = measured[10], measured[40]
        per_trial_rows = rows_1 / 10
        assert per_trial_rows > 100
        bound = kept + self.PER_TRIAL / per_trial_rows
        assert (peak_4 - peak_1) / (rows_4 - rows_1) < bound


def pairwise_defects(cfg, ids):
    """Reference heatmap: one orthogonality_defect call per ordered pair."""
    served, _, _ = place_and_cluster(cfg, cfg.seed, 0)
    a = served.angles
    angles = {
        uid: AngularCoordinates(azimuth=0.0, elevation=0.0, mu_phi=p, mu_h=h)
        for uid, p, h in zip(served.user_id.tolist(), a.mu_phi.tolist(), a.mu_h.tolist())
    }
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

    @pytest.mark.parametrize("users", [20, 40, 1200])
    def test_fullest_group_and_tie_rule(self, users):
        # the dict grouping heatmap once kept: the most members win, ties
        # go to the lower (sector, cluster); 20 drops tie four groups at 3
        cfg = fast_cfg(users_per_trial=users)
        served, _, _ = place_and_cluster(cfg, cfg.seed, 0)
        groups = {}
        for uid, key in zip(served.user_id.tolist(),
                            zip(served.sector.tolist(), served.subsection.tolist())):
            groups.setdefault(key, []).append(uid)
        fullest = min(groups, key=lambda k: (-len(groups[k]), k))
        ids, _ = heatmap(cfg)
        assert ids == groups[fullest]

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
