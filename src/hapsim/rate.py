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
from typing import NamedTuple, Sequence

import numpy as np

from .allocation import Clustering, PowerAllocation, QoSSpec, ResourcePlan
from .channel import composite_steering
from .dofgrid import GridCell
from .geometry import ArrayConfig


class UserCell(NamedTuple):
    """A scheduled user's id and grid cell."""

    user_id: int
    cell: GridCell


@dataclass(frozen=True)
class RateReport:
    """Per-user arrays in the interference map's evaluation order."""

    rates: np.ndarray                 # bits/s
    spectral_efficiency: np.ndarray   # bits/s/Hz within the user's slot
    sum_rate: float


def effective_sinr(spectral_efficiency: np.ndarray) -> list[float]:
    """2^se - 1 per entry, through the C library pow as Python float
    arithmetic does; numpy's vectorized power can differ in the last bit."""
    return [2.0 ** v - 1.0 for v in spectral_efficiency.tolist()]


@dataclass(frozen=True)
class ConstraintReport:
    power_margin_w: float            # p_total - p_max * sum(omega)
    qos_margin_model: float          # min over users, allocator gain model
    qos_margin_realized: float       # min over users, with interference
    qos_feasible: bool


def build_cluster_precoders(
    mu_phi: np.ndarray, mu_h: np.ndarray, order: np.ndarray, cfg: ArrayConfig
) -> np.ndarray:
    """The users' unit steering vectors as rows, in evaluation order.

    A (sector, cluster) group's precoder is its block of rows transposed:
    column k is the unit steering vector of the group's k-th member by
    user id. Angle-only, so the result can be computed once per trial and
    reused across power points.
    """
    return composite_steering(mu_phi, mu_h, cfg)[order]


@dataclass(frozen=True)
class InterferenceMap:
    """Power-independent part of evaluate_objective for one trial.

    Users are held in evaluation order: (sector, cluster) groups in key
    order, members by user id; every array below is indexed that way.

    terms says who interferes with whom on which block. Each bucket holds
    (targets (m,), interferer rows (m, k), gains |h_u^H p_v|^2 (m, k)),
    targets flat into an (n, r + 1) table: column 0 for every block (same
    group, other cell), column 1 + pos for block position pos (the other
    groups holding that block). Buckets are keyed by (rank, k) in sorted
    order, rank the interfering group's place among the block's holders
    (0 in column 0); no target repeats inside a bucket.
    """

    order: np.ndarray        # (n,) each row's position in user-id order
    time_share: np.ndarray   # (n,)
    own_gain: np.ndarray     # (n,) |h_u^H p_u|^2
    terms: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def build_interference_map(
    groups: Clustering,
    sector: np.ndarray,
    section: np.ndarray,
    subsection: np.ndarray,
    channels: np.ndarray,
    plan: ResourcePlan,
    precoders: np.ndarray,
) -> InterferenceMap:
    """Gains, same-cell masks and block sharing of one trial, power-free.

    The per-user arrays and the (n, M) channels are in user-id order;
    groups is their cluster_users result and precoders is
    build_cluster_precoders'. A user's same-cluster interferers are the
    other members of its group outside its own cell. Under reuse, each of
    its blocks also collects the groups of the same sector whose cluster
    holds that block, in the order of their first members' user ids.
    """
    order, starts = groups.order, groups.starts
    sizes = np.diff(starts)
    width = plan.rb_per_user + 1  # columns of the terms' (n, r + 1) table
    own_gain = np.empty(len(order))
    parts: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    # groups of one size at a time, sizes in order of first appearance:
    # (groups, size, size) projections
    for size in dict.fromkeys(sizes.tolist()):
        rows = starts[np.flatnonzero(sizes == size)][:, None] + np.arange(size)
        members = order[rows]
        # each group's (M, size) precoder, contiguous, as one stack
        stack = np.ascontiguousarray(precoders[rows].transpose(0, 2, 1))
        proj = np.abs(channels[members].conj() @ stack) ** 2
        own_gain[rows] = np.diagonal(proj, axis1=1, axis2=2)
        # same group, different cell: in one group that means another section
        sec = section[members]
        mask = sec[:, :, None] != sec[:, None, :]
        counts = mask.sum(axis=2)
        # sorted(set()), not np.unique, which imports numpy.ma (about 2 MB)
        for k in sorted(set(counts[counts > 0].tolist())):
            g, a = np.nonzero(counts == k)
            b = np.nonzero(mask[g, a])[1].reshape(-1, k)
            parts.setdefault((0, k), []).append(
                (rows[g, a] * width, rows[g[:, None], b], proj[g[:, None], a[:, None], b])
            )
    if plan.reuse:
        first = order[starts[:-1]]  # each group's first member
        group_sector = sector[first].tolist()
        group_cluster = subsection[first].tolist()
        holders: dict[tuple[int, int], list[int]] = {}
        for g in np.argsort(first).tolist():
            for b in plan.cluster_blocks[group_cluster[g]]:
                holders.setdefault((group_sector[g], b), []).append(g)
        for g, (s, l) in enumerate(zip(group_sector, group_cluster)):
            rows = np.arange(starts[g], starts[g + 1])
            h_conj = [channels[i].conj() for i in order[rows]]
            for pos, b in enumerate(plan.cluster_blocks[l]):
                for rank, o in enumerate(holders[(s, b)]):
                    if o == g:
                        continue
                    cols = np.arange(starts[o], starts[o + 1])
                    p = np.ascontiguousarray(precoders[cols].T)
                    # one vector-matrix product per user, as a per-user
                    # loop takes it; a stacked product can round differently
                    gains = np.array([np.abs(h @ p) ** 2 for h in h_conj])
                    parts.setdefault((rank, len(cols)), []).append(
                        (rows * width + 1 + pos, np.tile(cols, (len(rows), 1)), gains)
                    )
    return InterferenceMap(
        order=order,
        time_share=groups.time_share[order],
        own_gain=own_gain,
        terms=tuple(
            tuple(np.concatenate(arrays) for arrays in zip(*parts[key]))
            for key in sorted(parts)
        ),
    )


def evaluate_objective(
    users: Sequence[UserCell],
    plan: ResourcePlan,
    power: PowerAllocation,
    qos: QoSSpec,
    rho: float,
    bw_rb: float,
    allocator_gains: np.ndarray,
    interference: InterferenceMap,
) -> tuple[RateReport, ConstraintReport]:
    """Realized rates for a full trial plus constraint margins.

    users holds one record per user (only its length is read), and
    power.omega and allocator_gains are in user-id order. interference is
    build_interference_map's result for these users, built once per trial
    and reused at every power point. One pass over its terms sums each
    bucket's omega * time_share-weighted gains into the (n, r + 1) table;
    block position pos of a user then sees column 0 plus column 1 + pos,
    whatever rule shared the blocks. The report's arrays follow the map's
    evaluation order, interference.order.
    """
    im = interference
    n = len(im.order)
    if len(users) != n:
        raise ValueError(
            f"interference map holds {n} users, trial has {len(users)}"
        )
    omega = power.omega[im.order]
    omega_eff = omega * im.time_share
    own = im.own_gain * omega
    # every cluster holds plan.rb_per_user blocks (assign_resource_blocks)
    blocks = plan.rb_per_user
    # buckets in (rank, k) order add each block's interfering groups in
    # holder order, as a scalar loop would; 0.0 + s == s
    acc = np.zeros(n * (blocks + 1))
    for target, inter, gains in im.terms:
        acc[target] += np.sum(omega_eff[inter] * gains, axis=1)
    acc = acc.reshape(n, blocks + 1)
    # per-block log terms summed in block order, as a scalar loop would
    se_sum = np.zeros(n)
    for pos in range(blocks):
        sinr_b = rho * own / (rho * (acc[:, 0] + acc[:, 1 + pos]) + 1.0)
        se_sum = se_sum + np.log2(1.0 + sinr_b)
    se = se_sum / blocks
    rate_arr = im.time_share * blocks * bw_rb * se

    # in evaluation order, left to right, as Python's sum adds
    sum_rate = float(sum(rate_arr.tolist()))

    if n:
        gain = allocator_gains[im.order]
        model_margin = float(np.min(np.log2(1.0 + rho * omega * gain) - qos.r_min))
        realized_margin = float(np.min(se - qos.r_min))
    else:
        model_margin = float("inf")
        realized_margin = float("inf")
    report = RateReport(
        rates=rate_arr, spectral_efficiency=se, sum_rate=sum_rate
    )
    constraints = ConstraintReport(
        power_margin_w=power.p_total - power.spent,
        qos_margin_model=model_margin,
        qos_margin_realized=realized_margin,
        qos_feasible=power.qos_feasible,
    )
    return report, constraints
