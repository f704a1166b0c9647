"""Experiment harness: seeded trials, figure sweeps, CSV and meta output.

Every entry point is deterministic for a given config: trial t draws from
default_rng(SeedSequence((seed, t))), aggregation iterates in sorted order,
floats are written with repr() so reruns are byte-identical. Trial state up
to the channel draw is independent of transmit power, so power sweeps build
each trial once and re-solve only the power allocation per point.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .allocation import (
    PowerBudgetError,
    cluster_users,
    assign_resource_blocks,
    fill_remaining_power,
    min_power_coefficients,
    scaled_min_power,
)
from .allocation import ResourcePlan
from .channel import (
    ChannelStats,
    correlation_matrices,
    large_scale_fading,
    los_channel,
    sample_channel,
)
from .config import ScenarioConfig
from .dofgrid import (
    GridCell,
    OutOfCoverageError,
    cell_center,
    locate,
    steering_correlation,
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
    ServedUser,
    build_cluster_precoders,
    build_interference_map,
    evaluate_objective,
)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def figure_r_values(cfg: ScenarioConfig) -> tuple[int, ...]:
    """Blocks-per-user values compared in the figure sweeps."""
    if cfg.bandwidth == 10e6:
        return (1, 2, 3)
    if cfg.bandwidth == 20e6:
        return (1, 2, 3, 4, 6)
    return (cfg.r,)


@dataclass(frozen=True)
class TrialState:
    """Power-independent part of one trial."""

    cfg: ScenarioConfig
    trial: int
    users: tuple[ServedUser, ...]
    plan: ResourcePlan
    gains: dict[int, float]
    unserved: int
    interference: InterferenceMap


class UserRow(NamedTuple):
    """One user's line of a trial; a named tuple, since every power point
    of every trial builds one per user."""

    user_id: int
    cell: GridCell
    time_share: float
    omega: float
    sinr: float
    spectral_efficiency: float
    rate_bps: float


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    sum_rate_bps: float
    qos_feasible: bool
    power_margin_w: float
    qos_margin_model: float
    qos_margin_realized: float
    unserved: int
    users: tuple[UserRow, ...]


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial)))


UserDraw = tuple[int, float, AngularCoordinates, GridCell]


def _cell_users(
    cfg: ScenarioConfig, rng: np.random.Generator
) -> list[UserDraw]:
    """One user per grid cell, uniform within the cell in beam coordinates.

    This is the occupancy regime the figure sweeps assume. Users live in
    (mu_phi, mu_h) space: slant distance follows from mu_h; the azimuth
    handed to the scattering model is the nearest physical one (the grid's
    azimuth interval is the idealized beam span, which overhangs the set of
    directions a ground user can actually produce).
    """
    sgrid = cfg.section_grid()
    subgrid = cfg.subsection_grid()
    mu_h_top = sgrid.mu_h_range[1]
    out: list[UserDraw] = []
    uid = 0
    for sector in range(1, cfg.n_sectors + 1):
        for section in range(1, sgrid.n_sections + 1):
            for sub in range(1, subgrid.l_count + 1):
                c_phi, c_h = cell_center(sgrid, subgrid, section, sub)
                u1, u2 = rng.random(2)
                mu_phi = c_phi + (u1 - 0.5) * subgrid.delta_phi
                mu_h = c_h + (u2 - 0.5) * subgrid.delta_h
                mu_h = min(max(mu_h, 0.0), mu_h_top)
                sin_el = math.sqrt(max(1.0 - mu_h * mu_h, 1e-12))
                elevation = math.acos(min(mu_h, 1.0))
                azimuth = math.acos(min(max(mu_phi / sin_el, -1.0), 1.0))
                distance = cfg.haps_altitude / sin_el
                angles = AngularCoordinates(
                    azimuth=azimuth, elevation=elevation,
                    mu_phi=mu_phi, mu_h=mu_h,
                )
                cell = locate(angles, sgrid, subgrid, sector)
                uid += 1
                out.append((uid, distance, angles, cell))
    return out


def _disk_users(
    cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[list[UserDraw], int]:
    """users_per_trial positions i.i.d. uniform over the coverage disk."""
    sgrid = cfg.section_grid()
    subgrid = cfg.subsection_grid()
    positions = drop_users(
        cfg.effective_users(), cfg.coverage_radius, cfg.haps_altitude, rng
    )
    served: list[UserDraw] = []
    unserved = 0
    for uid, pos in enumerate(positions, start=1):
        global_az = math.atan2(pos.ground_y, pos.ground_x)
        sector = sector_of(global_az, cfg.n_sectors)
        angles = user_angles(pos, sector_boresight(sector, cfg.n_sectors))
        try:
            cell = locate(angles, sgrid, subgrid, sector)
        except OutOfCoverageError:
            unserved += 1
            continue
        served.append((uid, pos.distance_3d, angles, cell))
    return served, unserved


def place_and_cluster(
    cfg: ScenarioConfig, master_seed: int, trial: int
) -> tuple[list[UserDraw], int, np.random.Generator]:
    """Place users and resolve their grid cells.

    Default (users_per_trial unset): one user per cell, the full-occupancy
    figure regime. With users_per_trial set: that many uniform-disk drops,
    which can leave cells empty, stack users into one cell (they then
    time-share), or fall outside the grid (counted as unserved).

    Returns (served, unserved_count, rng); the rng is handed back so callers
    that continue with fading draws stay on one deterministic stream.
    """
    rng = trial_rng(master_seed, trial)
    if cfg.users_per_trial is None:
        return _cell_users(cfg, rng), 0, rng
    served, unserved = _disk_users(cfg, rng)
    return served, unserved, rng


def prepare_trial(cfg: ScenarioConfig, master_seed: int, trial: int) -> TrialState:
    """Geometry, clustering, fading and channel draws for one trial.

    Each stage runs once over all served users; the draws keep the order of
    a per-user loop (every user's fading, then every user's channel), so the
    random stream and every value match it bit for bit.
    """
    served, unserved, rng = place_and_cluster(cfg, master_seed, trial)
    acfg = cfg.array_config()
    angle_list = [angles for _, _, angles, _ in served]

    fading = large_scale_fading(
        np.array([distance for _, distance, _, _ in served], dtype=float),
        cfg.carrier_freq, cfg.fading_model(), rng,
    )
    # the covariances live only for this call, which keeps them out of the
    # peak memory of the per-trial structures built below
    channels = sample_channel(
        ChannelStats(
            mean=los_channel(
                fading,
                AngularCoordinates(
                    azimuth=np.array([a.azimuth for a in angle_list], dtype=float),
                    elevation=np.array([a.elevation for a in angle_list], dtype=float),
                    mu_phi=np.array([a.mu_phi for a in angle_list], dtype=float),
                    mu_h=np.array([a.mu_h for a in angle_list], dtype=float),
                ),
                acfg,
            ),
            covariance=correlation_matrices(
                angle_list,
                cfg.scattering_spread(),
                fading.beta_nlos,
                acfg,
                quadrature_points=cfg.quadrature_points,
                rule=cfg.quadrature_rule,
            ),
        ),
        rng,
    )

    clusters = cluster_users([(uid, cell) for uid, _, _, cell in served])
    shares: dict[int, float] = {}
    for cl in clusters:
        shares.update(cl.time_shares)
    plan = assign_resource_blocks(clusters, cfg.nbr, cfg.r)

    users = tuple(
        ServedUser(
            user_id=uid, cell=cell, angles=angles, channel=h_vec,
            time_share=shares[uid],
        )
        for (uid, _dist, angles, cell), h_vec in zip(served, channels)
    )
    # allocator gain: the transmitter only knows channel statistics, so
    # QoS is budgeted on the deterministic matched-beam direct-path gain
    # |mean^H v|^2 = beta_los, not on the realized fade
    gains = dict(zip((uid for uid, _, _, _ in served), fading.beta_los.tolist()))
    return TrialState(
        cfg=cfg,
        trial=trial,
        users=users,
        plan=plan,
        gains=gains,
        unserved=unserved,
        interference=build_interference_map(
            users, plan, build_cluster_precoders(users, acfg)
        ),
    )


def evaluate_trial(state: TrialState, p_max: float, p_total: float) -> TrialRecord:
    """Solve the power allocation at one budget and score the trial."""
    cfg = state.cfg
    rho = cfg.rho(p_max)
    qos = cfg.qos()
    try:
        omega_min = min_power_coefficients(state.gains, rho, qos, p_max, p_total)
        power = fill_remaining_power(
            omega_min, state.gains, rho, p_max, p_total, qos
        )
    except PowerBudgetError:
        power = scaled_min_power(state.gains, rho, qos, p_max, p_total)
    report, constraints = evaluate_objective(
        state.users, state.plan, power, qos, rho, cfg.bw_rb,
        state.gains, state.interference,
    )
    rows = tuple(
        UserRow(
            user_id=u.user_id,
            cell=u.cell,
            time_share=u.time_share,
            omega=power.omega[u.user_id],
            sinr=report.sinr[u.user_id],
            spectral_efficiency=report.spectral_efficiency[u.user_id],
            rate_bps=report.rates[u.user_id],
        )
        for u in sorted(state.users, key=lambda u: u.user_id)
    )
    return TrialRecord(
        trial=state.trial,
        sum_rate_bps=report.sum_rate,
        qos_feasible=constraints.qos_feasible,
        power_margin_w=constraints.power_margin_w,
        qos_margin_model=constraints.qos_margin_model,
        qos_margin_realized=constraints.qos_margin_realized,
        unserved=state.unserved,
        users=rows,
    )


def run_trial(cfg: ScenarioConfig, master_seed: int, trial: int) -> TrialRecord:
    state = prepare_trial(cfg, master_seed, trial)
    return evaluate_trial(state, cfg.p_max, cfg.p_total)


# -- entry points -------------------------------------------------------------


def _run_task(args: tuple[ScenarioConfig, int, int]) -> TrialRecord:
    cfg, seed, trial = args
    return run_trial(cfg, seed, trial)


def run(cfg: ScenarioConfig, out_dir: str | Path | None = None,
        workers: int = 1) -> list[TrialRecord]:
    """Per-user rate table over cfg.trials seeded trials."""
    tasks = [(cfg, cfg.seed, t) for t in range(cfg.trials)]
    records = sorted(_map_tasks(_run_task, tasks, workers), key=lambda r: r.trial)
    if out_dir is not None:
        header = [
            "trial", "user", "sector", "section", "subsection", "time_share",
            "omega", "sinr", "spectral_efficiency_bits_hz", "rate_bps",
            "sum_rate_bps", "qos_feasible", "unserved_users",
        ]
        rows: list[list[object]] = []
        for rec in records:
            for u in rec.users:
                rows.append([
                    rec.trial, u.user_id, u.cell.sector, u.cell.section,
                    u.cell.subsection, u.time_share, u.omega, u.sinr,
                    u.spectral_efficiency, u.rate_bps, rec.sum_rate_bps,
                    rec.qos_feasible, rec.unserved,
                ])
        _write_outputs(out_dir, "run", cfg, header, rows)
    return records


def _sweep_power_task(
    args: tuple[ScenarioConfig, int, int, tuple[float, ...]]
) -> tuple[int, int, list[tuple[float, bool]]]:
    cfg_r, seed, trial, powers_dbm = args
    state = prepare_trial(cfg_r, seed, trial)
    out = []
    for dbm in powers_dbm:
        p = dbm_to_watts(dbm)
        rec = evaluate_trial(state, p, p)
        out.append((rec.sum_rate_bps, rec.qos_feasible))
    return cfg_r.r, trial, out


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
    tasks = []
    cfg_by_r = {}
    for r in r_values:
        cfg_r = replace(cfg, r=r).resolve()
        cfg_by_r[r] = cfg_r
        for t in range(cfg.trials):
            tasks.append((cfg_r, cfg.seed, t, powers))
    results = _map_tasks(_sweep_power_task, tasks, workers)

    by_point: dict[tuple[float, int], list[float]] = {}
    for r, _trial, values in results:
        for dbm, (sum_rate, _feasible) in zip(powers, values):
            by_point.setdefault((dbm, r), []).append(sum_rate)
    rows = []
    for (dbm, r) in sorted(by_point):
        samples = np.array(by_point[(dbm, r)])
        stderr = (
            float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
            if len(samples) > 1
            else 0.0
        )
        rows.append({
            "p_max_dbm": dbm,
            "L": cfg_by_r[r].subsection_grid().l_count,
            "r": r,
            "mean_sum_rate_bps": float(np.mean(samples)),
            "stderr": stderr,
        })
    if out_dir is not None:
        header = ["p_max_dbm", "L", "r", "mean_sum_rate_bps", "stderr"]
        _write_outputs(
            out_dir, "sweep_power", cfg,
            header, [[row[k] for k in header] for row in rows],
            extra=[("powers_dbm", ",".join(repr(p) for p in powers)),
                   ("r_values", ",".join(str(r) for r in r_values))],
        )
    return rows


def sweep_rb(
    cfg: ScenarioConfig,
    r_values: Sequence[int] | None = None,
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> list[dict[str, object]]:
    """Per-user rate samples for each blocks-per-user choice (CDF data)."""
    r_set = tuple(r_values) if r_values is not None else figure_r_values(cfg)
    tasks = []
    cfg_by_r = {}
    for r in r_set:
        cfg_r = replace(cfg, r=r).resolve()
        cfg_by_r[r] = cfg_r
        for t in range(cfg.trials):
            tasks.append((cfg_r, cfg.seed, t))
    results = _map_tasks(_sweep_rb_task, tasks, workers)
    keyed = {(r, rec.trial): rec for r, rec in results}
    rows = []
    for r in r_set:
        l_count = cfg_by_r[r].subsection_grid().l_count
        for t in range(cfg.trials):
            rec = keyed[(r, t)]
            for u in rec.users:
                rows.append({
                    "r": r, "L": l_count, "trial": t,
                    "user": u.user_id, "rate_bps": u.rate_bps,
                })
    if out_dir is not None:
        header = ["r", "L", "trial", "user", "rate_bps"]
        _write_outputs(
            out_dir, "sweep_rb", cfg,
            header, [[row[k] for k in header] for row in rows],
            extra=[("r_values", ",".join(str(r) for r in r_set))],
        )
    return rows


def _sweep_rb_task(
    args: tuple[ScenarioConfig, int, int]
) -> tuple[int, TrialRecord]:
    cfg_r, seed, trial = args
    return cfg_r.r, run_trial(cfg_r, seed, trial)


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
    groups: dict[tuple[int, int], list[tuple[int, AngularCoordinates]]] = {}
    for uid, _dist, angles, cell in served:
        groups.setdefault((cell.sector, cell.subsection), []).append((uid, angles))
    acfg = cfg.array_config()
    rows: list[list[object]]
    if not groups or max(len(v) for v in groups.values()) < 2:
        ids: list[int] = []
        matrix = np.zeros((0, 0))
        header = ["note"]
        rows = [["no cluster holds more than one user"]]
    else:
        key = min(groups, key=lambda k: (-len(groups[k]), k))
        members = sorted(groups[key], key=lambda m: m[0])
        ids = [uid for uid, _ in members]
        mu_phi = np.array([angles.mu_phi for _, angles in members])
        mu_h = np.array([angles.mu_h for _, angles in members])
        matrix = steering_correlation(
            mu_phi[:, None] - mu_phi, mu_h[:, None] - mu_h, acfg
        )
        header = ["user"] + [str(uid) for uid in ids]
        rows = [[uid] + [float(x) for x in matrix[i]] for i, uid in enumerate(ids)]
    if out_dir is not None:
        _write_outputs(out_dir, "heatmap", cfg, header, rows)
    return ids, matrix


# -- output -------------------------------------------------------------------


def _map_tasks(fn, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    # np.float64 subclasses float, so numpy floats go first: repr() of one
    # reads "np.float64(...)" under numpy >= 2
    if isinstance(value, np.floating):
        return repr(float(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_meta(path: Path, cfg: ScenarioConfig,
               extra: Sequence[tuple[str, str]] = ()) -> None:
    lines = [f"{k} = {v}" for k, v in cfg.canonical_items()]
    lines.extend(f"{k} = {v}" for k, v in extra)
    lines.append(f"fingerprint = {cfg.fingerprint()}")
    path.write_text("\n".join(lines) + "\n")


def _write_outputs(
    out_dir: str | Path,
    name: str,
    cfg: ScenarioConfig,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    extra: Sequence[tuple[str, str]] = (),
) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    meta_path = out / "meta.txt"
    write_csv(csv_path, header, rows)
    write_meta(meta_path, cfg, extra=[("command", name), *extra])
    return csv_path, meta_path
