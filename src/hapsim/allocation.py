"""User clustering, resource-block assignment, and QoS-constrained power fill.

Users in the same subsection index l (across sections and sectors) form
cluster l and share that cluster's r resource blocks, row l - 1 of the
plan's (clusters, r) block table; users in the very same grid cell
additionally time-share their blocks in equal slots. Transmit power
is parametrized by per-user coefficients Omega with sum(Omega) * p_max bounded
by p_total: first every user gets the minimum coefficient meeting the rate
floor under an interference-free gain model, then the remaining budget is
handed out greedily in fixed spectral-efficiency steps, cheapest user first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class PowerBudgetError(ValueError):
    """QoS floors alone exceed the power budget."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(
            f"minimum QoS power exceeds the budget by {margin:.6g} W"
        )


class PowerRangeError(ValueError):
    """A QoS floor coefficient is not finite: rho times a gain underflows."""


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
        for key in ("r_min", "delta_r"):  # the floors take 2^r_min, the fill 2^delta_r
            if not getattr(self, key) < 1024:  # 2.0 ** 1024 overflows
                raise ValueError(f"{key} must be < 1024, so that 2**{key} is finite")
        if 2.0 ** self.delta_r == 1.0:
            raise ValueError(f"delta_r = {self.delta_r!r} gives a greedy step 2**delta_r - 1 of 0")


class Clustering(NamedTuple):
    """Users grouped for scheduling; positions index the input arrays."""

    order: np.ndarray   # positions by (sector, cluster, user id): evaluation order
    starts: np.ndarray  # (groups + 1,) bounds of the (sector, cluster) groups in order
    time_share: np.ndarray  # per position: 1 / users in its grid cell
    cluster_ids: np.ndarray  # subsection ids present, ascending


@dataclass(frozen=True, eq=False)
class ResourcePlan:
    """Block table: row l - 1 holds cluster l's r blocks, 0-based within
    0..nbr-1, for every l up to the largest cluster present."""

    blocks: np.ndarray  # (clusters, r) int
    reuse: bool  # some block serves more than one present cluster


@dataclass(frozen=True)
class PowerAllocation:
    omega: np.ndarray  # per user, in user-id order
    p_max: float
    p_total: float
    qos_feasible: bool = True

    @property
    def spent(self) -> float:
        return self.p_max * float(np.sum(self.omega))


def cluster_users(
    user_id: np.ndarray,
    sector: np.ndarray,
    section: np.ndarray,
    subsection: np.ndarray,
) -> Clustering:
    """Group users by subsection index and split each cell's airtime.

    Cluster l holds every user of subsection index l; within one sector
    its members form a co-scheduled group. One stable lexsort puts the
    groups in (sector, cluster) order, members by user id. Members of one
    grid cell split its airtime equally; cells are counted by bincount
    over a flat cell index (np.unique would import numpy.ma).
    """
    order = np.lexsort((user_id, subsection, sector))
    s, l = sector[order], subsection[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (s[1:] != s[:-1]) | (l[1:] != l[:-1])
    cell = (
        sector * (np.max(section, initial=0) + 1) + section
    ) * (np.max(subsection, initial=0) + 1) + subsection
    return Clustering(
        order=order,
        starts=np.append(np.flatnonzero(first), len(order)),
        time_share=1.0 / np.bincount(cell)[cell],
        cluster_ids=np.flatnonzero(np.bincount(subsection)),
    )


def assign_resource_blocks(cluster_ids: np.ndarray, nbr: int, r: int) -> ResourcePlan:
    """Blocks {(l-1)*r .. l*r - 1} mod nbr for cluster l.

    Disjoint across clusters when L * r <= nbr; otherwise the modulo can
    wrap some blocks into a second cluster. The plan is flagged as reuse
    when two of the given (1-based, distinct) clusters hold a common block.
    """
    if nbr < 1:
        raise ValueError("nbr must be >= 1")
    if not 1 <= r <= nbr:
        raise ValueError(f"r={r} outside 1..nbr={nbr}")
    clusters = int(np.max(cluster_ids, initial=0))
    blocks = (np.arange(clusters)[:, None] * r + np.arange(r)) % nbr
    # one cluster's r <= nbr blocks are distinct
    held = np.bincount(blocks[cluster_ids - 1].ravel(), minlength=1)
    return ResourcePlan(blocks=blocks, reuse=bool(held.max() > 1))


def _floor_coefficients(gains: np.ndarray, rho: float, qos: QoSSpec) -> np.ndarray:
    """Omega_min = (2^r_min - 1) / (rho * g) per user; PowerRangeError
    unless every one is finite."""
    with np.errstate(divide="ignore", over="ignore"):
        floors = (2.0 ** qos.r_min - 1.0) / (rho * gains)
    bad = np.flatnonzero(~np.isfinite(floors))
    if len(bad):
        raise PowerRangeError(
            f"rho {rho!r} times gain {float(gains[bad[0]])!r} gives QoS floor "
            f"{float(floors[bad[0]])!r}"
        )
    return floors


def min_power_coefficients(
    gains: np.ndarray,
    rho: float,
    qos: QoSSpec,
    p_max: float,
    p_total: float,
) -> np.ndarray:
    """Omega_min = (2^r_min - 1) / (rho * g) per user, in the gains' order.

    Raises PowerBudgetError when even these floors break the budget, and
    PowerRangeError when one is not finite.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    if p_max <= 0 or p_total <= 0:
        raise ValueError("power levels must be > 0")
    bad = np.flatnonzero(gains <= 0)
    if len(bad):
        raise ValueError(
            f"user at position {bad[0]} has non-positive gain {gains[bad[0]]}"
        )
    floors = _floor_coefficients(gains, rho, qos)
    margin = p_max * sum(floors.tolist()) - p_total
    if margin > 0:
        raise PowerBudgetError(margin)
    return floors


def scaled_min_power(
    gains: np.ndarray, rho: float, qos: QoSSpec, p_max: float, p_total: float
) -> PowerAllocation:
    """Best-effort fallback when the QoS floors are infeasible.

    Scales every Omega_min by the same factor so the budget is met exactly;
    all users then see equal SINR below the floor. Flagged, never raised.
    """
    floors = _floor_coefficients(gains, rho, qos)
    total = p_max * sum(floors.tolist())
    scale = min(1.0, p_total / total) if total > 0 else 1.0
    return PowerAllocation(
        omega=floors * scale,
        p_max=p_max,
        p_total=p_total,
        qos_feasible=scale >= 1.0,
    )


def _water_level(key0: np.ndarray, p_rem: float) -> float:
    """Level lam with sum over users of max(lam - key0, 0) equal to p_rem.

    A user's steps with keys up to lam cost key0 * (g^c - 1) > lam - key0
    in total (c steps, growth g), so the steps below lam cost more than
    p_rem: the greedy fill stops before its keys pass lam.
    """
    s = np.sort(key0)
    acc = np.add.accumulate(s)
    cost = np.arange(1, len(s) + 1) * s - acc  # at level s[j], j + 1 users active
    active = int(np.searchsorted(cost, p_rem, side="right"))
    return (p_rem + float(acc[active - 1])) / active


# keys per block of _key_bands: bounds the fill's temporaries (about
# 20 bytes per entry) apart from its flat arrays of candidate keys
_BAND_ENTRIES = 1 << 13


def _key_bands(key0: np.ndarray, counts: np.ndarray, growth: float):
    """Yield (rows, keys, valid) for blocks of users whose step counts
    share a bit length, so a block pads its rows to under twice their
    length.

    keys[i, k] is user rows[i]'s key after k grants, by repeated
    multiplication exactly as a per-user loop computes it; valid marks
    k < counts[rows[i]].
    """
    bits = np.frexp(counts)[1]  # counts in [2^(bits-1), 2^bits)
    for b in np.flatnonzero(np.bincount(bits)):
        band = np.flatnonzero(bits == b)
        width = int(counts[band].max())
        per_block = max(1, _BAND_ENTRIES // width)
        for lo in range(0, len(band), per_block):
            rows = band[lo:lo + per_block]
            keys = np.full((len(rows), width), growth)
            keys[:, 0] = key0[rows]
            np.multiply.accumulate(keys, axis=1, out=keys)
            yield rows, keys, np.arange(width) < counts[rows][:, None]


def fill_remaining_power(
    omega_min: np.ndarray,
    gains: np.ndarray,
    rho: float,
    p_max: float,
    p_total: float,
    qos: QoSSpec,
) -> PowerAllocation:
    """Greedy spend of the leftover budget in delta_r rate steps.

    Raising a user from rate R to R + delta_r costs
        delta_p = step * key,  key = p_max * 2^R / (rho * g),
    with step = 2^delta_r - 1, and a grant multiplies the user's key by
    2^delta_r. The greedy rule grants the cheapest step (ties by position,
    which is user-id order) until the leftover no longer covers it; that
    user then absorbs the leftover as a partial grant. A user's keys only
    grow, so the grants come in ascending (key, position) order over all
    (user, step) pairs,
    and the fill replays that order in closed form, bit for bit equal to
    a heap loop (tests/test_allocation.py keeps that loop as the oracle):

    * each user's keys come from multiply.accumulate over [key0, g, g, ...],
      which is sequential and so equals repeated multiplication; only
      steps below a water level on the leftover (plus a guard step) are
      built, so memory follows the number of grants;
    * the leftover before each candidate is a sequential add.accumulate of
      [p_rem, -delta_0, -delta_1, ...] over the sorted keys (tied keys cost
      the same, so their order does not move it), and the stop is the
      first candidate whose step exceeds it, found by bisection since the
      steps grow and the leftover shrinks;
    * each user's omega adds its granted steps in order, again by a
      sequential add.accumulate; tied keys at the stop are granted in
      position order, and the next user in that order takes the partial
      grant.

    Should the stop fall beyond the built keys, the level doubles and the
    replay runs again. A NaN or infinite leftover raises ValueError, as do
    keys that are not finite and positive, where a heap loop would grant
    forever (QoSSpec keeps the step finite and positive).
    """
    omega = np.array(omega_min, dtype=float)
    start = omega.tolist()
    p_rem = p_total - p_max * sum(start)
    if not math.isfinite(p_rem):
        raise ValueError(f"power budget is not finite (leftover {p_rem!r})")
    if p_rem < -1e-9 * p_total:
        raise PowerBudgetError(-p_rem)
    n = len(start)
    if n == 0 or p_rem <= 0.0:
        return PowerAllocation(omega=omega, p_max=p_max, p_total=p_total)
    growth = 2.0 ** qos.delta_r
    step = growth - 1.0
    key0 = (p_max * 2.0 ** qos.r_min) / (rho * gains)
    if not np.all((key0 > 0.0) & (key0 < math.inf)):
        raise ValueError("greedy steps need finite positive costs")

    level = _water_level(key0, p_rem) * growth
    while True:
        # steps up to the level, one guard step, and every user's first
        with np.errstate(divide="ignore"):
            counts = np.floor(np.log(level / key0) / math.log(growth)) + 2.0
        counts = np.maximum(counts, 1.0).astype(np.int64)
        keys = np.empty(int(counts.sum()))
        covered = math.inf  # every key up to this one is in keys
        filled = 0
        for rows, band, valid in _key_bands(key0, counts, growth):
            last = band[np.arange(len(rows)), counts[rows] - 1]
            covered = min(covered, float(last.min()))
            taken = band[valid]
            keys[filled:filled + len(taken)] = taken
            filled += len(taken)
        keys.sort()
        rem = np.empty(len(keys) + 1)  # leftover before each candidate
        rem[0] = p_rem
        np.multiply(keys, -step, out=rem[1:])
        np.add.accumulate(rem, out=rem)
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if step * keys[mid] > rem[mid]:
                hi = mid
            else:
                lo = mid + 1
        if lo < len(keys) and keys[lo] <= covered:
            break
        level *= 2.0
    stop_key = keys[lo]
    left = float(rem[lo])
    tied_granted = lo - int(np.searchsorted(keys, stop_key, side="left"))
    del keys, rem

    granted = np.empty(n)  # omega after the steps below the stop key
    granted_tie = np.empty(n)  # ... and after a step at the stop key
    tied = np.zeros(n, dtype=bool)
    for rows, band, valid in _key_bands(key0, counts, growth):
        below = ((band < stop_key) & valid).sum(axis=1)
        tied[rows] = ((band == stop_key) & valid).any(axis=1)
        acc = np.empty((len(rows), band.shape[1] + 1))
        acc[:, 0] = omega[rows]
        np.multiply(band, step, out=acc[:, 1:])
        acc[:, 1:] /= p_max
        np.add.accumulate(acc, axis=1, out=acc)
        at = np.arange(len(rows))
        granted[rows] = acc[at, below]
        granted_tie[rows] = acc[at, np.minimum(below + 1, band.shape[1])]
    tie_rows = np.flatnonzero(tied)
    first = tie_rows[:tied_granted]
    granted[first] = granted_tie[first]
    if left > 0:
        granted[tie_rows[tied_granted]] += left / p_max  # final partial grant
    return PowerAllocation(omega=granted, p_max=p_max, p_total=p_total)
