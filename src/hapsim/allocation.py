"""User clustering, resource-block assignment, and QoS-constrained power fill.

Users in the same subsection index l (across sections and sectors) form
cluster l and share that cluster's r resource blocks; users in the very same
grid cell additionally time-share their blocks in equal slots. Transmit power
is parametrized by per-user coefficients Omega with sum(Omega) * p_max bounded
by p_total: first every user gets the minimum coefficient meeting the rate
floor under an interference-free gain model, then the remaining budget is
handed out greedily in fixed spectral-efficiency steps, cheapest user first.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dofgrid import GridCell


class PowerBudgetError(ValueError):
    """QoS floors alone exceed the power budget."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(
            f"minimum QoS power exceeds the budget by {margin:.6g} W"
        )


@dataclass(frozen=True)
class QoSSpec:
    """Per-user rate floor (bits/s/Hz) and greedy step size."""

    r_min: float = 1.0
    delta_r: float = 0.05

    def __post_init__(self):
        if self.r_min < 0:
            raise ValueError("r_min must be >= 0")
        if self.delta_r <= 0:
            raise ValueError("delta_r must be > 0")


@dataclass(frozen=True)
class Cluster:
    """All users of one subsection index, with per-user time shares."""

    subsection_id: int
    members: tuple[tuple[int, GridCell], ...]  # (user id, cell), sorted by id
    time_shares: Mapping[int, float]


@dataclass(frozen=True)
class ResourcePlan:
    """Block indices per cluster; blocks are 0-based within 0..nbr-1."""

    rb_per_user: int
    total_rb: int
    cluster_blocks: Mapping[int, tuple[int, ...]]
    reuse: bool  # some block serves more than one cluster


@dataclass(frozen=True)
class PowerAllocation:
    omega: Mapping[int, float]
    p_max: float
    p_total: float
    qos_feasible: bool = True

    @property
    def spent(self) -> float:
        return self.p_max * sum(self.omega.values())


def cluster_users(located: Sequence[tuple[int, GridCell]]) -> list[Cluster]:
    """Group (user id, cell) pairs into clusters by subsection index.

    Members of one cell split its airtime equally. Output is sorted by
    subsection id, members by user id, so clustering is deterministic.
    """
    by_subsection: dict[int, list[tuple[int, GridCell]]] = {}
    occupancy: dict[GridCell, int] = {}
    for uid, cell in located:
        by_subsection.setdefault(cell.subsection, []).append((uid, cell))
        occupancy[cell] = occupancy.get(cell, 0) + 1
    clusters = []
    for l in sorted(by_subsection):
        members = tuple(sorted(by_subsection[l]))
        shares = {uid: 1.0 / occupancy[cell] for uid, cell in members}
        clusters.append(Cluster(subsection_id=l, members=members, time_shares=shares))
    return clusters


def assign_resource_blocks(clusters: Sequence[Cluster], nbr: int, r: int) -> ResourcePlan:
    """Blocks {(l-1)*r .. l*r - 1} mod nbr for cluster l.

    Disjoint across clusters when L * r <= nbr; otherwise the modulo wraps
    some blocks into a second cluster and the plan is flagged as reuse.
    """
    if nbr < 1:
        raise ValueError("nbr must be >= 1")
    if not 1 <= r <= nbr:
        raise ValueError(f"r={r} outside 1..nbr={nbr}")
    blocks = {}
    for cluster in clusters:
        l = cluster.subsection_id
        blocks[l] = tuple(((l - 1) * r + k) % nbr for k in range(r))
    reuse = max((c.subsection_id for c in clusters), default=0) * r > nbr
    return ResourcePlan(rb_per_user=r, total_rb=nbr, cluster_blocks=blocks, reuse=reuse)


def min_power_coefficients(
    gains: Mapping[int, float],
    rho: float,
    qos: QoSSpec,
    p_max: float,
    p_total: float,
) -> dict[int, float]:
    """Omega_min = (2^r_min - 1) / (rho * g) per user.

    Raises PowerBudgetError when even these floors break the budget.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    if p_max <= 0 or p_total <= 0:
        raise ValueError("power levels must be > 0")
    need = 2.0 ** qos.r_min - 1.0
    omega = {}
    for uid in sorted(gains):
        g = gains[uid]
        if g <= 0:
            raise ValueError(f"user {uid} has non-positive gain {g}")
        omega[uid] = need / (rho * g)
    margin = p_max * sum(omega.values()) - p_total
    if margin > 0:
        raise PowerBudgetError(margin)
    return omega


def scaled_min_power(
    gains: Mapping[int, float], rho: float, qos: QoSSpec, p_max: float, p_total: float
) -> PowerAllocation:
    """Best-effort fallback when the QoS floors are infeasible.

    Scales every Omega_min by the same factor so the budget is met exactly;
    all users then see equal SINR below the floor. Flagged, never raised.
    """
    need = 2.0 ** qos.r_min - 1.0
    omega = {uid: need / (rho * gains[uid]) for uid in sorted(gains)}
    total = p_max * sum(omega.values())
    scale = min(1.0, p_total / total) if total > 0 else 1.0
    return PowerAllocation(
        omega={uid: w * scale for uid, w in omega.items()},
        p_max=p_max,
        p_total=p_total,
        qos_feasible=scale >= 1.0,
    )


def fill_remaining_power(
    omega_min: Mapping[int, float],
    gains: Mapping[int, float],
    rho: float,
    p_max: float,
    p_total: float,
    qos: QoSSpec,
) -> PowerAllocation:
    """Greedy spend of the leftover budget in delta_r rate steps.

    Raising a user from rate R to R + delta_r costs
        delta_p = (2^delta_r - 1) * p_max * 2^R / (rho * g),
    so the heap is keyed by p_max * 2^R / (rho * g) (ties by user id) and a
    grant multiplies the key by 2^delta_r. When the leftover no longer covers
    the cheapest full step, the cheapest user absorbs it as a partial grant.
    A NaN or infinite leftover never falls below a step, so it raises
    ValueError instead of granting forever.
    """
    omega = {uid: float(w) for uid, w in omega_min.items()}
    p_rem = p_total - p_max * sum(omega.values())
    if not math.isfinite(p_rem):
        raise ValueError(f"power budget is not finite (leftover {p_rem!r})")
    if p_rem < -1e-9 * p_total:
        raise PowerBudgetError(-p_rem)
    step = 2.0 ** qos.delta_r - 1.0
    heap = [
        (p_max * (2.0 ** qos.r_min) / (rho * gains[uid]), uid)
        for uid in sorted(omega)
    ]
    heapq.heapify(heap)
    while heap:
        base, uid = heap[0]
        delta_p = step * base
        if delta_p > p_rem:
            if p_rem > 0:
                omega[uid] += p_rem / p_max  # final partial grant
            break
        heapq.heapreplace(heap, (base * (2.0 ** qos.delta_r), uid))
        omega[uid] += delta_p / p_max
        p_rem -= delta_p
    return PowerAllocation(omega=omega, p_max=p_max, p_total=p_total)
