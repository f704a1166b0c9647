"""Experiment harness: seeded trials, figure sweeps, CSV and meta output.

Every entry point is deterministic for a given config: trial t draws from
default_rng(SeedSequence((seed, t))), results are used in task order, and
floats are written as str() of Python floats, which equals their repr(), so
reruns are byte-identical. Trial state up to the channel draw is independent
of transmit power, so power sweeps build each trial once and re-solve only
the power allocation per point. Layouts of one disk-drop trial index differ
only in r, which sets the subsection grid and nothing the draw reads, so
the sweeps run those layouts in one task that draws the channels for the
first and hands them to the rest. Full-occupancy layouts differ in L, never
share a draw and run one task per (layout, trial). Per-user results stay
arrays in user-id order; the CSV is written one row at a time from them,
so no row list or CSV text is held in memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product, repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .allocation import (
    PowerBudgetError,
    PowerRangeError,
    ResourcePlan,
    assign_resource_blocks,
    cluster_users,
    fill_remaining_power,
    min_power_coefficients,
    scaled_min_power,
)
from .channel import (
    composite_steering,
    converged_nodes,
    correlation_matrices,
    large_scale_fading,
    los_channel,
    sample_channel,
)
from .config import ConfigError, ScenarioConfig
from .dofgrid import (
    GridCell, SectionGrid, SubsectionGrid, cell_center, locate, steering_correlation,
)
from .geometry import (
    AngularCoordinates,
    drop_users,
    sector_boresight,
    sector_of,
    user_angles,
)
from .rate import (
    InterferenceMap,
    UserCell,
    build_cluster_precoders,
    build_interference_map,
    evaluate_objective,
)


def dbm_to_watts(dbm: float) -> float:
    """Watts of a dBm power; inf where the float power overflows."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


def figure_r_values(cfg: ScenarioConfig) -> tuple[int, ...]:
    """Blocks-per-user values compared in the figure sweeps."""
    if cfg.bandwidth == 10e6:
        return (1, 2, 3)
    if cfg.bandwidth == 20e6:
        return (1, 2, 3, 4, 6)
    return (cfg.r,)


@dataclass(frozen=True)
class Placement:
    """Served users of one trial, arrays in user-id order."""

    user_id: np.ndarray
    distance: np.ndarray  # slant range to the platform, m
    angles: AngularCoordinates
    sector: np.ndarray
    section: np.ndarray
    subsection: np.ndarray


@dataclass(frozen=True)
class TrialState:
    """Power-independent part of one trial.

    Per-user arrays are in user-id order, as is the report the scorer
    returns; the (sector, cluster) evaluation order stays inside the
    interference map, allocation and rate.
    """

    cfg: ScenarioConfig
    trial: int
    served: Placement
    time_share: np.ndarray
    # allocator gain: the transmitter only knows channel statistics, so
    # QoS is budgeted on the deterministic matched-beam direct-path gain
    # |mean^H v|^2 = beta_los, not on the realized fade
    gain: np.ndarray
    channels: np.ndarray  # (N, M), read-only: layouts may share one draw
    plan: ResourcePlan
    unserved: int
    interference: InterferenceMap
    # the (user id, cell) records evaluate_objective takes, one tuple per
    # trial
    users: tuple[UserCell, ...]


_column = partial(field, repr=False, compare=False)


@dataclass(frozen=True)
class TrialRecord:
    """One scored trial: trial-level results, then one array per user
    column, each in user-id order."""

    trial: int
    sum_rate_bps: float
    qos_feasible: bool
    power_margin_w: float
    qos_margin_model: float
    qos_margin_realized: float
    unserved: int
    users: np.ndarray = _column()  # user ids
    sector: np.ndarray = _column()
    section: np.ndarray = _column()
    subsection: np.ndarray = _column()
    time_share: np.ndarray = _column()
    omega: np.ndarray = _column()
    spectral_efficiency: np.ndarray = _column()
    rate_bps: np.ndarray = _column()


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial)))


def _acos(x: np.ndarray) -> np.ndarray:
    """arccos entry by entry through the C library, as math.acos does;
    numpy's vectorized arccos can differ in the last bit."""
    return np.array([math.acos(v) for v in x.tolist()])


def _cell_users(
    cfg: ScenarioConfig, sgrid: SectionGrid, subgrid: SubsectionGrid,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, AngularCoordinates]:
    """One draw per grid cell, uniform within the cell in beam coordinates:
    (sector, slant range, angles).

    This is the occupancy regime the figure sweeps assume. Users live in
    (mu_phi, mu_h) space: slant distance follows from mu_h; the azimuth
    handed to the scattering model is the nearest physical one (the grid's
    azimuth interval is the idealized beam span, which overhangs the set of
    directions a ground user can actually produce). Draws run over
    sectors, then sections, then subsections; each draws its two uniforms
    in that order.
    """
    per_sector = sgrid.n_sections * subgrid.l_count
    section = np.repeat(np.arange(1, sgrid.n_sections + 1), subgrid.l_count)
    subsection = np.tile(np.arange(1, subgrid.l_count + 1), sgrid.n_sections)
    c_phi, c_h = cell_center(sgrid, subgrid, section, subsection)
    u = rng.random((cfg.n_sectors * per_sector, 2))
    mu_phi = np.tile(c_phi, cfg.n_sectors) + (u[:, 0] - 0.5) * subgrid.delta_phi
    mu_h = np.tile(c_h, cfg.n_sectors) + (u[:, 1] - 0.5) * subgrid.delta_h
    mu_h = np.minimum(np.maximum(mu_h, 0.0), sgrid.mu_h_range[1])
    sin_el = np.sqrt(np.maximum(1.0 - mu_h * mu_h, 1e-12))
    return (
        np.repeat(np.arange(1, cfg.n_sectors + 1), per_sector),
        cfg.haps_altitude / sin_el,
        AngularCoordinates(
            azimuth=_acos(np.clip(mu_phi / sin_el, -1.0, 1.0)),
            elevation=_acos(np.minimum(mu_h, 1.0)),
            mu_phi=mu_phi,
            mu_h=mu_h,
        ),
    )


def _disk_users(
    cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, AngularCoordinates]:
    """users_per_trial positions i.i.d. uniform over the coverage disk:
    (sector, slant range, angles)."""
    x, y = drop_users(cfg.users_per_trial, cfg.coverage_radius, rng)
    h = cfg.haps_altitude
    sector = sector_of(np.arctan2(y, x), cfg.n_sectors)
    angles = user_angles(x, y, h, sector_boresight(sector, cfg.n_sectors))
    return sector, np.hypot(np.hypot(x, y), h), angles


def place_and_cluster(
    cfg: ScenarioConfig, master_seed: int, trial: int
) -> tuple[Placement, int, np.random.Generator]:
    """Place users and resolve their grid cells.

    Default (users_per_trial unset): one user per cell, the full-occupancy
    figure regime. With users_per_trial set: that many uniform-disk drops,
    which can leave cells empty or stack users into one cell (they then
    time-share). Either way every draw is located once on the grid, and
    one that falls outside it is counted as unserved; user ids number the
    draws from 1, so they skip the unserved.

    Returns (served, unserved_count, rng); the rng is handed back so callers
    that continue with fading draws stay on one deterministic stream.
    """
    rng = trial_rng(master_seed, trial)
    sgrid, subgrid = cfg.section_grid(), cfg.subsection_grid()
    if cfg.users_per_trial is None:
        sector, distance, angles = _cell_users(cfg, sgrid, subgrid, rng)
    else:
        sector, distance, angles = _disk_users(cfg, rng)
    section, subsection, inside = locate(angles, sgrid, subgrid)
    keep = np.flatnonzero(inside)
    served = Placement(
        user_id=keep + 1,
        distance=distance[keep],
        angles=AngularCoordinates(**{k: v[keep] for k, v in vars(angles).items()}),
        sector=sector[keep],
        section=section[keep],
        subsection=subsection[keep],
    )
    return served, len(inside) - len(keep), rng


def prepare_trial(
    cfg: ScenarioConfig, master_seed: int, trial: int, channels: np.ndarray | None = None
) -> TrialState:
    """Geometry, clustering, fading and channel draws for one trial.

    Each stage runs once over all served users; the draws keep the order of
    a per-user loop (every user's fading, then every user's channel), so the
    random stream and every value match it bit for bit. One table of unit
    steering rows, in user-id order, is both the LoS direction and the
    matched-beam precoder column of each user. The channels are read-only.

    channels may be passed only when they are those prepare_trial returned
    for another layout of the same disk-drop seed and trial: a config that
    differs from this one only in r, with users_per_trial set. Such layouts
    place the same users and would draw the same channels, so neither the
    LoS mean nor the draw is built again.
    """
    served, unserved, rng = place_and_cluster(cfg, master_seed, trial)
    acfg = cfg.array_config()
    spread = cfg.scattering_spread()
    angles = served.angles
    steering_rows = composite_steering(angles.mu_phi, angles.mu_h, acfg)

    try:
        # a path loss that overflows to inf gives a LoS gain of 0, rejected below
        with np.errstate(over="ignore"):
            fading = large_scale_fading(
                served.distance, cfg.carrier_freq, cfg.sigma_sf, cfg.nlos_penalty_db, rng
            )
    except OverflowError:
        fading = None
    if fading is None or not np.all(
        (fading.beta_los > 0.0) & (fading.beta_los <= 1.0) & (fading.beta_nlos <= 1.0)
    ):
        raise ConfigError(
            f"trial {trial}: carrier_freq, sigma_sf and nlos_penalty_db give a "
            "link gain that underflows to 0 or exceeds 0 dB (a passive link "
            "cannot deliver more power than was sent)"
        )
    # a description: the draw builds its lag tables one block of users at a
    # time. Built even when channels are given, as perfbench predicts one
    # per prepared trial; quadrature_points stays a keyword, which
    # perfbench's traced correlation_matrices reads
    covariance = correlation_matrices(
        angles.azimuth, angles.elevation, spread, fading.beta_nlos, acfg,
        quadrature_points=converged_nodes(spread, acfg, cfg.quadrature_points),
    )
    if channels is None:
        channels = sample_channel(los_channel(fading, steering_rows), covariance, rng)
        channels.flags.writeable = False

    groups = cluster_users(
        served.user_id, served.sector, served.section, served.subsection
    )
    plan = assign_resource_blocks(groups.cluster_ids, cfg.nbr, cfg.r)
    interference = build_interference_map(
        groups, served.sector, served.section, served.subsection, channels, plan,
        build_cluster_precoders(steering_rows, groups.order),
    )
    return TrialState(
        cfg=cfg,
        trial=trial,
        served=served,
        time_share=groups.time_share,
        gain=fading.beta_los,
        channels=channels,
        plan=plan,
        unserved=unserved,
        interference=interference,
        users=tuple(map(UserCell, served.user_id.tolist(), map(
            GridCell,
            served.sector.tolist(), served.section.tolist(), served.subsection.tolist(),
        ))),
    )


def evaluate_trial(state: TrialState, p_max: float, p_total: float) -> TrialRecord:
    """Solve the power allocation at one budget and score the trial."""
    cfg = state.cfg
    rho = cfg.rho(p_max)
    qos = cfg.qos()
    try:
        omega_min = min_power_coefficients(state.gain, rho, qos, p_max, p_total)
        power = fill_remaining_power(
            omega_min, state.gain, rho, p_max, p_total, qos
        )
    except PowerBudgetError:
        power = scaled_min_power(state.gain, rho, qos, p_max, p_total)
    except PowerRangeError as exc:
        raise ConfigError(f"p_max {p_max!r} W: {exc}") from None
    report = evaluate_objective(
        state.users, state.plan, power, qos, rho, cfg.bw_rb,
        state.gain, state.interference,
    )
    return TrialRecord(
        trial=state.trial,
        sum_rate_bps=report.sum_rate,
        qos_feasible=power.qos_feasible,
        power_margin_w=report.power_margin_w,
        qos_margin_model=report.qos_margin_model,
        qos_margin_realized=report.qos_margin_realized,
        unserved=state.unserved,
        users=state.served.user_id,
        sector=state.served.sector,
        section=state.served.section,
        subsection=state.served.subsection,
        time_share=state.time_share,
        omega=power.omega,
        spectral_efficiency=report.spectral_efficiency,
        rate_bps=report.rates,
    )


def run_trial(cfg: ScenarioConfig, master_seed: int, trial: int) -> TrialRecord:
    state = prepare_trial(cfg, master_seed, trial)
    return evaluate_trial(state, cfg.p_max, cfg.p_total)


# -- entry points -------------------------------------------------------------


def run(cfg: ScenarioConfig, out_dir: str | Path | None = None,
        workers: int = 1) -> list[TrialRecord]:
    """Per-user rate table over cfg.trials seeded trials."""
    tasks = [(cfg, cfg.seed, t) for t in range(cfg.trials)]
    records = _map_tasks(run_trial, tasks, workers)
    if out_dir is not None:
        header = [
            "trial", "user", "sector", "section", "subsection", "time_share",
            "omega", "sinr", "spectral_efficiency_bits_hz", "rate_bps",
            "sum_rate_bps", "qos_feasible", "unserved_users",
        ]
        rows = (row for rec in records for row in zip(
            repeat(rec.trial), rec.users.tolist(), rec.sector.tolist(),
            rec.section.tolist(), rec.subsection.tolist(),
            rec.time_share.tolist(), rec.omega.tolist(),
            (np.exp2(rec.spectral_efficiency) - 1.0).tolist(),
            rec.spectral_efficiency.tolist(), rec.rate_bps.tolist(),
            repeat(rec.sum_rate_bps), repeat(rec.qos_feasible),
            repeat(rec.unserved),
        ))
        _write_outputs(out_dir, "run", cfg, header, rows)
    return records


def _power_sums(state: TrialState, powers_dbm: tuple[float, ...]) -> list[float]:
    return [
        evaluate_trial(state, p, p).sum_rate_bps
        for p in map(dbm_to_watts, powers_dbm)
    ]


def _layouts_task(
    configs: Sequence[ScenarioConfig], seed: int, trial: int,
    score: Callable[[TrialState], object],
) -> list:
    """score(state) of each layout of one trial index. Each layout's state
    is dropped before the next is prepared; only the first layout's
    channels carry over, so the layouts must be disk drops differing in r."""
    scores, channels = [], None
    for cfg_r in configs:
        state = prepare_trial(cfg_r, seed, trial, channels)
        channels = state.channels
        scores.append(score(state))
        del state
    return scores


def _map_layouts(
    score: Callable[[TrialState], object], cfg: ScenarioConfig,
    configs: Sequence[ScenarioConfig], workers: int,
) -> list:
    """score(state) of every (layout, trial), in (layout, trial) order.

    Disk drops (users_per_trial set) feed every layout of a trial index
    equal draw inputs, so one task runs all of them and draws once; full-
    occupancy layouts differ in L, never share a draw, and each (layout,
    trial) is its own task, so --workers spreads as many tasks as before.
    """
    shared = cfg.users_per_trial is not None
    groups = [tuple(configs)] if shared else [(c,) for c in configs]
    tasks = [(g, cfg.seed, t, score) for g in groups for t in range(cfg.trials)]
    # in (group, trial, layout) order: (trial, layout) when shared
    flat = [res for out in _map_tasks(_layouts_task, tasks, workers) for res in out]
    if shared:
        n = len(configs)
        flat = [flat[t * n + i] for i in range(n) for t in range(cfg.trials)]
    return flat


def sweep_power(
    cfg: ScenarioConfig,
    powers_dbm: Sequence[float],
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> list[dict[str, object]]:
    """Mean sum rate over trials for each (power, blocks-per-user) point.

    Each r value is swept at its own full occupancy unless the config pins
    users_per_trial. The per-antenna and total budgets both track the swept
    power so the comparison is budget-fair across r.
    """
    powers = tuple(float(p) for p in powers_dbm)
    r_values = figure_r_values(cfg)
    configs = [replace(cfg, r=r) for r in r_values]
    for dbm in powers:  # fail before any trial runs
        for cfg_r in configs:
            try:
                cfg_r.rho(dbm_to_watts(dbm))
            except ConfigError as exc:
                raise ConfigError(f"power {dbm!r} dBm: {exc}") from None
    # sum rates by (layout, trial, power)
    sums = np.array(
        _map_layouts(partial(_power_sums, powers_dbm=powers), cfg, configs, workers)
    ).reshape(len(configs), cfg.trials, len(powers))
    rows = []
    # r_values ascend, so rows come sorted by (power, r)
    for k, dbm in sorted(enumerate(powers), key=lambda kp: kp[1]):
        for cfg_r, samples in zip(configs, sums[:, :, k]):
            stderr = (
                float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
                if len(samples) > 1
                else 0.0
            )
            rows.append({
                "p_max_dbm": dbm,
                "L": cfg_r.subsection_grid().l_count,
                "r": cfg_r.r,
                "mean_sum_rate_bps": float(np.mean(samples)),
                "stderr": stderr,
            })
    if out_dir is not None:
        header = ["p_max_dbm", "L", "r", "mean_sum_rate_bps", "stderr"]
        _write_outputs(
            out_dir, "sweep_power", cfg,
            header, ([row[k] for k in header] for row in rows),
            extra=[("powers_dbm", ",".join(repr(p) for p in powers)),
                   ("r_values", ",".join(str(r) for r in r_values))],
        )
    return rows


def sweep_rb(
    cfg: ScenarioConfig,
    r_values: Sequence[int] | None = None,
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> dict[tuple[int, int], np.ndarray]:
    """Per-user rate samples for each blocks-per-user choice (CDF data):
    one array per (r, L), trials in order, users in id order within each."""
    r_set = tuple(r_values) if r_values is not None else figure_r_values(cfg)
    configs = [replace(cfg, r=r) for r in r_set]
    records = _map_layouts(
        partial(evaluate_trial, p_max=cfg.p_max, p_total=cfg.p_total),
        cfg, configs, workers,
    )
    if out_dir is not None:
        rows = (
            row
            for (cfg_r, t), rec in zip(product(configs, range(cfg.trials)), records)
            for row in zip(
                repeat(cfg_r.r), repeat(cfg_r.subsection_grid().l_count), repeat(t),
                rec.users.tolist(), rec.rate_bps.tolist(),
            )
        )
        _write_outputs(
            out_dir, "sweep_rb", cfg, ["r", "L", "trial", "user", "rate_bps"], rows,
            extra=[("r_values", ",".join(str(r) for r in r_set))],
        )
    n = cfg.trials
    return {
        (cfg_r.r, cfg_r.subsection_grid().l_count):
            np.concatenate([rec.rate_bps for rec in records[i * n:(i + 1) * n]])
        for i, cfg_r in enumerate(configs)
    }


def heatmap(
    cfg: ScenarioConfig,
    out_dir: str | Path | None = None,
) -> tuple[list[int], np.ndarray]:
    """Pairwise steering-correlation matrix of the fullest co-scheduled group.

    Pure geometry: users are dropped and clustered, the (sector, cluster)
    group with the most members wins (ties: lower sector, then cluster id),
    and the matrix holds |normalized steering inner products| for its members.
    """
    served, _unserved, _rng = place_and_cluster(cfg, cfg.seed, 0)
    groups = cluster_users(
        served.user_id, served.sector, served.section, served.subsection
    )
    sizes = np.diff(groups.starts)  # groups in (sector, cluster) order
    acfg = cfg.array_config()
    rows: list[list[object]]
    if np.max(sizes, initial=0) < 2:
        ids: list[int] = []
        matrix = np.zeros((0, 0))
        header = ["note"]
        rows = [["no cluster holds more than one user"]]
    else:
        g = int(np.argmax(sizes))  # the first of the fullest
        members = groups.order[groups.starts[g]:groups.starts[g + 1]]
        ids = served.user_id[members].tolist()
        mu_phi = served.angles.mu_phi[members]
        mu_h = served.angles.mu_h[members]
        matrix = steering_correlation(
            mu_phi[:, None] - mu_phi, mu_h[:, None] - mu_h, acfg
        )
        header = ["user"] + [str(uid) for uid in ids]
        rows = [[uid, *values] for uid, values in zip(ids, matrix.tolist())]
    if out_dir is not None:
        _write_outputs(out_dir, "heatmap", cfg, header, rows)
    return ids, matrix


# -- output -------------------------------------------------------------------


def _map_tasks(fn, tasks: list[tuple], workers: int) -> list:
    """fn(*task) for every task, in task order."""
    # a process pool starts all of its workers at the first submit, so ask
    # for no more than there are tasks and CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(tasks), cpus or 1)
    if workers <= 1:
        return [fn(*t) for t in tasks]
    # imported here: the pool module pulls in multiprocessing, socket and
    # pickle (about 1.5 MB), which a serial run never uses
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write the header, then one line per row as rows are consumed."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _write_outputs(
    out_dir: str | Path,
    name: str,
    cfg: ScenarioConfig,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    extra: Sequence[tuple[str, str]] = (),
) -> None:
    """<name>.csv, then meta.txt: the canonical config, the command, extra
    and the config's fingerprint."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / f"{name}.csv", header, rows)
    meta = [*cfg.canonical_items(), ("command", name), *extra,
            ("fingerprint", cfg.fingerprint())]
    (out / "meta.txt").write_text("".join(f"{k} = {v}\n" for k, v in meta))
