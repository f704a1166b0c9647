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
from .dofgrid import GridCell


class UserCell(NamedTuple):
    """A scheduled user's id and grid cell."""

    user_id: int
    cell: GridCell


@dataclass(frozen=True)
class RateReport:
    """One scored trial: per-user arrays in user-id order, the sum rate
    and the constraint margins."""

    rates: np.ndarray                 # bits/s
    spectral_efficiency: np.ndarray   # bits/s/Hz within the user's slot
    sum_rate: float
    power_margin_w: float             # p_total - p_max * sum(omega)
    qos_margin_model: float           # min over users, allocator gain model
    qos_margin_realized: float        # min over users, with interference


def build_cluster_precoders(steering_rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The users' unit steering vectors, rows in user-id order, taken in
    evaluation order.

    A (sector, cluster) group's precoder is its block of rows transposed:
    column k is the unit steering vector of the group's k-th member by
    user id. Angle-only, so the result can be computed once per trial and
    reused across power points.
    """
    return steering_rows[order]


@dataclass(frozen=True)
class InterferenceMap:
    """Power-independent part of evaluate_objective for one trial.

    Users are held in evaluation order: (sector, cluster) groups in key
    order, members by user id; every array below is indexed that way.

    terms says who interferes with whom on which block, as three flat
    arrays of one entry per (target, interferer) pair: target indexes an
    (n, r + 1) table, flat, interferer is the interfering user's row and
    gain is |h_u^H p_v|^2. Column 0 of a user's table row collects
    interference on every block (other members of its group, outside its
    cell); column 1 + pos collects interference on block position pos
    (members of the other groups of its sector that hold that block).
    """

    order: np.ndarray        # (n,) each row's position in user-id order
    time_share: np.ndarray   # (n,)
    own_gain: np.ndarray     # (n,) |h_u^H p_u|^2
    blocks: int              # r, the blocks every user holds
    terms: tuple[np.ndarray, np.ndarray, np.ndarray]  # target, interferer, gain


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
    holds that block in plan.blocks, which nothing else reads; a target's
    terms come in evaluation order. The map records the block count r.
    """
    order, starts = groups.order, groups.starts
    sizes = np.diff(starts)
    width = plan.blocks.shape[1] + 1  # columns of the terms' (n, r + 1) table
    own_gain = np.empty(len(order))
    # (target, interferer, gain) pieces; the empty first one types a trial with no terms
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    # groups of one size at a time: (groups, size, size) projections
    for size in dict.fromkeys(sizes.tolist()):
        rows = starts[np.flatnonzero(sizes == size)][:, None] + np.arange(size)
        members = order[rows]
        # each group's (M, size) precoder, contiguous, as one stack
        stack = np.ascontiguousarray(precoders[rows].transpose(0, 2, 1))
        proj = np.abs(channels[members].conj() @ stack) ** 2
        own_gain[rows] = np.diagonal(proj, axis1=1, axis2=2)
        # same group, different cell: in one group that means another section
        sec = section[members]
        g, a, b = np.nonzero(sec[:, :, None] != sec[:, None, :])
        parts.append((rows[g, a] * width, rows[g, b], proj[g, a, b]))
    if plan.reuse:
        first = order[starts[:-1]]  # each group's first member
        # per sector, shares[i, pos, j]: its group j holds group i's block at pos
        for s in dict.fromkeys(sector[first].tolist()):
            ids = np.flatnonzero(sector[first] == s)
            held = plan.blocks[subsection[first[ids]] - 1]
            shares = (held[:, :, None, None] == held).any(axis=3)
            shares &= ~np.eye(len(ids), dtype=bool)[:, None, :]
            for i, j in zip(*np.nonzero(shares.any(axis=1))):
                rows = np.arange(starts[ids[i]], starts[ids[i] + 1])
                cols = np.arange(starts[ids[j]], starts[ids[j] + 1])
                # one gain per pair, at every position where j holds i's block
                gain = np.abs(channels[order[rows]].conj() @ precoders[cols].T) ** 2
                for pos in np.flatnonzero(shares[i, :, j]):
                    parts.append((np.repeat(rows * width + 1 + pos, len(cols)),
                                  np.tile(cols, len(rows)), gain.ravel()))
    return InterferenceMap(
        order=order,
        time_share=groups.time_share[order],
        own_gain=own_gain,
        blocks=width - 1,
        terms=tuple(map(np.concatenate, zip(*parts))),
    )


def evaluate_objective(
    users: Sequence[UserCell],
    power: PowerAllocation,
    qos: QoSSpec,
    rho: float,
    bw_rb: float,
    allocator_gains: np.ndarray,
    interference: InterferenceMap,
) -> RateReport:
    """Realized rates for a full trial plus constraint margins.

    users holds one record per user (only its length is read), and
    power.omega and allocator_gains are in user-id order. interference is
    build_interference_map's result for these users, built once per trial
    and reused at every power point. One bincount sums its terms' omega *
    time_share-weighted gains into the map's (n, r + 1) table; block
    position pos of a user then sees column 0 plus column 1 + pos,
    whatever rule shared the blocks. A user's spectral efficiency is the
    mean of its per-block log2(1 + sinr); the report's arrays are in
    user-id order.
    """
    im = interference
    n = len(im.order)
    if len(users) != n:
        raise ValueError(
            f"interference map holds {n} users, trial has {len(users)}"
        )
    omega = power.omega[im.order]
    blocks = im.blocks
    target, interferer, term_gain = im.terms
    acc = np.bincount(
        target, weights=(omega * im.time_share)[interferer] * term_gain,
        minlength=n * (blocks + 1),
    ).reshape(n, blocks + 1)
    sinr = rho * (im.own_gain * omega)[:, None] / (rho * (acc[:, :1] + acc[:, 1:]) + 1.0)
    se = np.mean(np.log2(1.0 + sinr), axis=1)
    rate_arr = im.time_share * blocks * bw_rb * se
    sum_rate = float(np.sum(rate_arr))

    model_margin = float(np.min(
        np.log2(1.0 + rho * power.omega * allocator_gains) - qos.r_min, initial=np.inf))
    realized_margin = float(np.min(se - qos.r_min, initial=np.inf))
    scored = np.empty((2, n))  # back to user-id order
    scored[:, im.order] = (se, rate_arr)
    return RateReport(
        rates=scored[1],
        spectral_efficiency=scored[0],
        sum_rate=sum_rate,
        power_margin_w=power.p_total - power.spent,
        qos_margin_model=model_margin,
        qos_margin_realized=realized_margin,
    )
