"""Per-user SINR and rate evaluation under nominal-direction precoding.

Each (sector, cluster) group is served by a matched-filter style precoder
whose columns are the unit steering vectors of the members' own directions.
A user's interference sums over co-scheduled users of the same sector that
share a resource block and are not slot-orthogonal to it (users in the same
grid cell time-share and never interfere with each other); interference from
a time-shared cell is weighted by the transmitting user's airtime fraction.

Noise is normalized to 1, so with rho = p_max / (N0 * r * bw_rb):

    sinr = rho * omega_u * |h_u^H p_u|^2 / (rho * I + 1)
    rate = time_share * r * bw_rb * log2(1 + sinr)   [bits/s]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .allocation import PowerAllocation, QoSSpec, ResourcePlan
from .channel import composite_steering
from .dofgrid import GridCell
from .geometry import AngularCoordinates, ArrayConfig


@dataclass(frozen=True)
class ServedUser:
    """Everything the rate evaluator needs to know about one scheduled user."""

    user_id: int
    cell: GridCell
    angles: AngularCoordinates
    channel: np.ndarray
    time_share: float


@dataclass(frozen=True)
class RateReport:
    """Per-user arrays in the interference map's evaluation order."""

    rates: np.ndarray                 # bits/s
    spectral_efficiency: np.ndarray   # bits/s/Hz within the user's slot
    sinr: np.ndarray
    sum_rate: float


@dataclass(frozen=True)
class ConstraintReport:
    power_margin_w: float            # p_total - p_max * sum(omega)
    qos_margin_model: float          # min over users, allocator gain model
    qos_margin_realized: float       # min over users, with interference
    qos_feasible: bool


def _group_members(users: Sequence[ServedUser]) -> dict[tuple[int, int], list[int]]:
    """Positions in users per (sector, cluster) group, in first-seen group
    order, members ordered by user id."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, u in enumerate(users):
        groups.setdefault((u.cell.sector, u.cell.subsection), []).append(i)
    for idx in groups.values():
        idx.sort(key=lambda i: users[i].user_id)
    return groups


def build_cluster_precoders(
    users: Sequence[ServedUser], cfg: ArrayConfig
) -> dict[tuple[int, int], np.ndarray]:
    """One precoder per (sector, cluster) group: an (M, n) array whose
    column k is the unit steering vector of the group's k-th member by
    user id.

    Angle-only, so the result can be computed once per trial and reused
    across power points.
    """
    steer = composite_steering(
        np.array([u.angles.mu_phi for u in users], dtype=float),
        np.array([u.angles.mu_h for u in users], dtype=float),
        cfg,
    )
    return {
        key: np.ascontiguousarray(steer[idx].T)
        for key, idx in _group_members(users).items()
    }


@dataclass(frozen=True)
class InterferenceMap:
    """Power-independent part of evaluate_objective for one trial.

    Users are held in evaluation order: (sector, cluster) groups in key
    order, members by user id; every array below is indexed that way.
    """

    user_ids: tuple[int, ...]
    time_share: np.ndarray   # (n,)
    own_gain: np.ndarray     # (n,) |h_u^H p_u|^2
    # same-cluster interference, one entry per interferer count k:
    # (rows (m,), interferer rows (m, k), gains |h_u^H p_v|^2 (m, k))
    same_cluster: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    # wrapped blocks under reuse: (row, block position,
    # ((slice of the other group's rows, gains onto its columns), ...))
    wrapped: tuple[tuple[int, int, tuple[tuple[slice, np.ndarray], ...]], ...]


def build_interference_map(
    users: Sequence[ServedUser],
    plan: ResourcePlan,
    precoders: Mapping[tuple[int, int], np.ndarray],
) -> InterferenceMap:
    """Gains, same-cell masks and block sharing of one trial, power-free.

    A user's same-cluster interferers are the other members of its group
    outside its own cell. Under reuse, each of its blocks also collects the
    groups of the same sector whose cluster holds that block.
    """
    groups = _group_members(users)
    keys = sorted(groups)
    start: dict[tuple[int, int], int] = {}
    order: list[int] = []
    for key in keys:
        start[key] = len(order)
        order.extend(groups[key])
    n = len(order)
    channels = np.array([u.channel for u in users])
    section = np.array([u.cell.section for u in users], dtype=int)
    own_gain = np.empty(n)
    parts: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    by_size: dict[int, list[tuple[int, int]]] = {}
    for key in keys:
        by_size.setdefault(len(groups[key]), []).append(key)
    # groups of one size at a time: (groups, size, size) projections
    for size, ks in by_size.items():
        members = np.array([groups[k] for k in ks])
        rows = np.array([start[k] for k in ks])[:, None] + np.arange(size)
        proj = np.abs(
            channels[members].conj() @ np.stack([precoders[k] for k in ks])
        ) ** 2
        own_gain[rows] = np.diagonal(proj, axis1=1, axis2=2)
        # same group, different cell: in one group that means another section
        sec = section[members]
        mask = sec[:, :, None] != sec[:, None, :]
        counts = mask.sum(axis=2)
        # sorted(set()), not np.unique, which imports numpy.ma (about 2 MB)
        for k in sorted(set(counts[counts > 0].tolist())):
            g, a = np.nonzero(counts == k)
            b = np.nonzero(mask[g, a])[1].reshape(-1, k)
            parts.setdefault(k, []).append(
                (rows[g, a], rows[g[:, None], b], proj[g[:, None], a[:, None], b])
            )
    wrapped = []
    if plan.reuse:
        block_groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for key in groups:
            for b in plan.cluster_blocks[key[1]]:
                block_groups.setdefault((key[0], b), []).append(key)
        for key in keys:
            for pos, b in enumerate(plan.cluster_blocks[key[1]]):
                others = [o for o in block_groups[(key[0], b)] if o != key]
                if not others:
                    continue
                for a, i in enumerate(groups[key]):
                    h_conj = users[i].channel.conj()
                    wrapped.append((start[key] + a, pos, tuple(
                        (
                            slice(start[o], start[o] + len(groups[o])),
                            np.abs(h_conj @ precoders[o]) ** 2,
                        )
                        for o in others
                    )))
    return InterferenceMap(
        user_ids=tuple(users[i].user_id for i in order),
        time_share=np.array([users[i].time_share for i in order], dtype=float),
        own_gain=own_gain,
        same_cluster=tuple(
            tuple(np.concatenate(arrays) for arrays in zip(*chunks))
            for chunks in parts.values()
        ),
        wrapped=tuple(wrapped),
    )


def evaluate_objective(
    users: Sequence[ServedUser],
    plan: ResourcePlan,
    power: PowerAllocation,
    qos: QoSSpec,
    rho: float,
    bw_rb: float,
    allocator_gains: Mapping[int, float],
    interference: InterferenceMap,
) -> tuple[RateReport, ConstraintReport]:
    """Realized rates for a full trial plus constraint margins.

    interference is build_interference_map's result for these users, built
    once per trial and reused at every power point. Each user is evaluated
    block by block: with disjoint block sets every block of a user sees the
    same interferers; when the plan reuses blocks across clusters the
    wrapped blocks also collect the other cluster's users. The report's
    arrays follow the map's evaluation order, interference.user_ids.
    """
    im = interference
    uids = im.user_ids
    if len(users) != len(uids):
        raise ValueError(
            f"interference map holds {len(uids)} users, trial has {len(users)}"
        )
    n = len(uids)
    omega = np.fromiter(map(power.omega.__getitem__, uids), float, n)
    omega_eff = omega * im.time_share
    own = im.own_gain * omega
    base = np.zeros(n)
    for rows, inter, gains in im.same_cluster:
        base[rows] = np.sum(omega_eff[inter] * gains, axis=1)
    # every cluster holds plan.rb_per_user blocks (assign_resource_blocks)
    blocks = plan.rb_per_user
    extra = np.zeros((n, blocks))
    for row, pos, others in im.wrapped:
        total = 0.0
        for rows, gains in others:
            total += float(np.sum(omega_eff[rows] * gains))
        extra[row, pos] = total
    # per-block log terms summed in block order, as a scalar loop would
    se_sum = np.zeros(n)
    for pos in range(blocks):
        sinr_b = rho * own / (rho * (base + extra[:, pos]) + 1.0)
        se_sum = se_sum + np.log2(1.0 + sinr_b)
    se = se_sum / blocks
    rate_arr = im.time_share * blocks * bw_rb * se

    # 2 ** v through the C library pow, as Python float arithmetic does;
    # numpy's vectorized power can differ in the last bit. The sum runs
    # in evaluation order, sequentially.
    sinr = np.array([2.0 ** v - 1.0 for v in se.tolist()])
    sum_rate = float(sum(rate_arr.tolist()))

    if uids:
        gain = np.fromiter(map(allocator_gains.__getitem__, uids), float, n)
        model_margin = float(np.min(np.log2(1.0 + rho * omega * gain) - qos.r_min))
        realized_margin = float(np.min(se - qos.r_min))
    else:
        model_margin = float("inf")
        realized_margin = float("inf")
    report = RateReport(
        rates=rate_arr, spectral_efficiency=se, sinr=sinr, sum_rate=sum_rate
    )
    constraints = ConstraintReport(
        power_margin_w=power.p_total - power.spent,
        qos_margin_model=model_margin,
        qos_margin_realized=realized_margin,
        qos_feasible=power.qos_feasible,
    )
    return report, constraints
