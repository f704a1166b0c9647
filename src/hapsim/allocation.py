"""User clustering, resource-block assignment, and QoS-constrained power fill.

Users in the same subsection index l (across sections and sectors) form
cluster l and share that cluster's r resource blocks, row l - 1 of the
plan's (clusters, r) block table; users in the very same grid cell
additionally time-share their blocks in equal slots. Transmit power
is parametrized by per-user coefficients Omega with sum(Omega) * p_max bounded
by p_total: first every user gets the minimum coefficient meeting the rate
floor under an interference-free gain model, then the remaining budget is
handed out greedily in fixed spectral-efficiency steps, cheapest user first.
The fill replays those steps one window of candidate costs at a time, so
its memory does not grow with the grant count, and refuses a fill whose
estimated step count passes 2^30, since its time still grows with it.
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


# candidate keys per window of the fill, about 50 bytes each with their
# leftovers and omega sums: the fill's memory does not follow its grants
_WINDOW_KEYS = 1 << 13
_MAX_STEPS = 1 << 30  # most greedy steps a fill takes: about a minute of work


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
    (user, step) pairs, and the fill replays that order in windows of
    about _WINDOW_KEYS keys, bit for bit equal to a heap loop
    (tests/test_allocation.py keeps that loop as the oracle):

    * a window takes the users whose next key is within
      growth^(_WINDOW_KEYS // n) of the lowest, builds their next keys by
      a multiply.accumulate over [key, g, g, ...], which is sequential and
      so equals repeated multiplication, and keeps those below the
      smallest key it did not build;
    * the leftover before each kept key is a sequential add.accumulate
      of [leftover, -delta_0, -delta_1, ...] over the sorted keys (tied
      keys cost the same, so their order does not move it), and the stop
      is the first key whose step exceeds it;
    * each user's omega adds its granted steps by a sequential
      add.accumulate; next keys, omega and the leftover carry over to the
      next window;
    * in the stop's window, tied keys at the stop are granted in position
      order, and the next user in that order takes the partial grant.

    The water level on the leftover estimates the step count, and a fill
    of more than _MAX_STEPS steps raises PowerRangeError before it builds
    a key. A NaN or infinite leftover raises ValueError, as do keys that
    are not finite and positive, where a heap loop would grant forever
    (QoSSpec keeps the step finite and positive).
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
    nxt = (p_max * 2.0 ** qos.r_min) / (rho * gains)  # each user's next key
    if not np.all((nxt > 0.0) & (nxt < math.inf)):
        raise ValueError("greedy steps need finite positive costs")
    climb = np.maximum(math.log(_water_level(nxt, p_rem)) - np.log(nxt), 0.0)
    steps = float(climb.sum()) / math.log1p(step)
    if steps > _MAX_STEPS:
        raise PowerRangeError(
            f"delta_r = {qos.delta_r!r} needs about {steps:.3g} greedy power steps; "
            f"the fill takes at most {_MAX_STEPS}"
        )

    reach = max(1, _WINDOW_KEYS // n)  # steps per user and window
    with np.errstate(over="ignore"):
        span = np.float64(growth) ** reach
        while True:
            lo = nxt.min()
            rows = np.flatnonzero(nxt <= lo * span)
            keys = np.full((len(rows), reach + 2), growth)  # the last column is a guard
            keys[:, 0] = nxt[rows]
            np.multiply.accumulate(keys, axis=1, out=keys)
            nxt[rows] = math.inf
            bound = min(keys[:, -1].min(), nxt.min())  # smallest key not built
            # bound is lo only once every key left is inf
            cand = np.sort(keys[keys < bound] if bound > lo else keys[keys == lo])
            rem = np.concatenate(([p_rem], cand * -step))  # leftover before each key
            np.add.accumulate(rem, out=rem)
            over = np.flatnonzero(step * cand > rem[:-1])
            below = (keys < (cand[over[0]] if len(over) else bound)).sum(axis=1)
            acc = np.concatenate((omega[rows, None], keys * step / p_max), axis=1)
            np.add.accumulate(acc, axis=1, out=acc)  # omega after each step
            at = np.arange(len(rows))
            omega[rows] = acc[at, below]
            if len(over):
                break
            nxt[rows] = keys[at, below]
            p_rem = rem[-1]
    stop = over[0]
    tie_rows = np.flatnonzero((keys == cand[stop]).any(axis=1))
    tied_granted = stop - int(np.searchsorted(cand, cand[stop], side="left"))
    first = tie_rows[:tied_granted]
    omega[rows[first]] = acc[first, below[first] + 1]
    if rem[stop] > 0:
        omega[rows[tie_rows[tied_granted]]] += rem[stop] / p_max  # final partial grant
    return PowerAllocation(omega=omega, p_max=p_max, p_total=p_total)
