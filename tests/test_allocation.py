import heapq
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import deadline
from hapsim import allocation
from hapsim.dofgrid import GridCell
from hapsim.allocation import (
    PowerAllocation,
    PowerBudgetError,
    PowerRangeError,
    QoSSpec,
    assign_resource_blocks,
    cluster_users,
    fill_remaining_power,
    min_power_coefficients,
    scaled_min_power,
)

SETTINGS = {"max_examples": 50, "deadline": None}


def cell(sector=1, section=1, subsection=1):
    return GridCell(sector=sector, section=section, subsection=subsection)


def clustered(located):
    """cluster_users on (user id, cell) pairs, given in that order."""
    column = lambda f: np.array([f(uid, c) for uid, c in located], dtype=np.int64)
    return cluster_users(
        column(lambda uid, c: uid), column(lambda uid, c: c.sector),
        column(lambda uid, c: c.section), column(lambda uid, c: c.subsection),
    )


def as_array(by_id):
    """Per-user values keyed by user id as an array in user-id order."""
    return np.array([by_id[u] for u in sorted(by_id)], dtype=float)


def by_id(ids, values):
    """An array in user-id order keyed by the sorted ids."""
    return dict(zip(sorted(ids), values.tolist()))


class TestClusterUsers:
    def test_single_cluster_distinct_cells(self):
        located = [(i, cell(section=i + 1, subsection=3)) for i in range(4)]
        groups = clustered(located)
        assert groups.cluster_ids == (3,)
        assert groups.starts.tolist() == [0, 4]
        assert groups.time_share.tolist() == [1.0] * 4

    def test_colocated_users_split_time(self):
        located = [(7, cell()), (9, cell())]
        groups = clustered(located)
        assert groups.cluster_ids == (1,)
        assert by_id([7, 9], groups.time_share) == {7: 0.5, 9: 0.5}

    def test_empty(self):
        groups = clustered([])
        assert groups.cluster_ids == ()
        assert len(groups.order) == 0 and groups.starts.tolist() == [0]

    def test_idempotent_partition(self):
        located = [
            (0, cell(section=1, subsection=2)),
            (1, cell(section=2, subsection=2)),
            (2, cell(section=1, subsection=5)),
            (3, cell(section=1, subsection=5)),
        ]
        once = clustered(located)
        again = clustered([located[i] for i in once.order.tolist()])

        def partition(groups, pairs):
            ids = [pairs[i][0] for i in groups.order.tolist()]
            bounds = groups.starts.tolist()
            return [ids[a:b] for a, b in zip(bounds, bounds[1:])]

        ordered = [located[i] for i in once.order.tolist()]
        assert partition(once, located) == partition(again, ordered)
        assert once.cluster_ids == again.cluster_ids == (2, 5)
        assert again.order.tolist() == [0, 1, 2, 3]

    @given(
        cells=st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(**SETTINGS)
    def test_time_shares_sum_per_cell(self, cells):
        located = [(i, cell(*c)) for i, c in enumerate(cells)]
        groups = clustered(located)
        totals = {}
        for (uid, c), share in zip(located, groups.time_share.tolist()):
            totals[c] = totals.get(c, 0.0) + share
        assert all(t == pytest.approx(1.0) for t in totals.values())
        assert sorted(groups.order.tolist()) == list(range(len(cells)))


class TestResourceBlocks:
    def test_first_cluster(self):
        plan = assign_resource_blocks(clustered([(0, cell(subsection=1))]).cluster_ids, 50, 2)
        assert plan.cluster_blocks[1] == (0, 1)
        assert not plan.reuse

    def test_full_grid_uses_all_blocks(self):
        located = [(l, cell(section=1, subsection=l)) for l in range(1, 26)]
        plan = assign_resource_blocks(clustered(located).cluster_ids, 50, 2)
        used = sorted(b for blocks in plan.cluster_blocks.values() for b in blocks)
        assert used == list(range(50))
        assert not plan.reuse

    def test_modulo_wrap_flags_reuse(self):
        located = [(l, cell(section=1, subsection=l)) for l in range(1, 37)]
        plan = assign_resource_blocks(clustered(located).cluster_ids, 100, 3)
        assert plan.reuse
        assert plan.cluster_blocks[34] == (99, 0, 1)
        assert plan.cluster_blocks[36] == (5, 6, 7)

    @pytest.mark.parametrize("cluster_ids", [(34,), (4, 34)])
    def test_wrap_without_a_shared_block_is_no_reuse(self, cluster_ids):
        # cluster 34 wraps onto blocks 0 and 1, which no given cluster holds
        plan = assign_resource_blocks(cluster_ids, 100, 3)
        assert plan.cluster_blocks[34] == (99, 0, 1)
        assert not plan.reuse

    def test_bad_r(self):
        with pytest.raises(ValueError):
            assign_resource_blocks([], 50, 0)
        with pytest.raises(ValueError):
            assign_resource_blocks([], 50, 51)


class TestMinPower:
    def test_zero_floor(self):
        qos = QoSSpec(r_min=0.0)
        omega = min_power_coefficients(np.array([1.0, 2.0]), 1.0, qos, 1.0, 1.0)
        assert omega.tolist() == [0.0, 0.0]

    def test_unit_case(self):
        omega = min_power_coefficients(np.array([1.0]), 1.0, QoSSpec(r_min=1.0), 10.0, 10.0)
        assert omega[0] == pytest.approx(1.0)

    def test_two_users(self):
        omega = min_power_coefficients(
            np.array([2.0, 4.0]), 1.0, QoSSpec(r_min=1.0), 1.0, 10.0
        )
        assert omega.tolist() == pytest.approx([0.5, 0.25])

    def test_infeasible_raises_with_margin(self):
        with pytest.raises(PowerBudgetError) as err:
            min_power_coefficients(np.array([1.0, 1.0]), 1.0, QoSSpec(r_min=1.0), 1.0, 1.5)
        assert err.value.margin == pytest.approx(0.5)

    @pytest.mark.parametrize("fn", [min_power_coefficients, scaled_min_power])
    def test_underflowing_gain_raises(self, fn):
        # rho * g is subnormal, so the floor overflows; scaled_min_power used
        # to return inf * 0 = nan
        gains = np.array([1.0, 1e-14])
        with pytest.raises(PowerRangeError, match="gain 1e-14 gives QoS floor inf"):
            fn(gains, 1e-299, QoSSpec(r_min=1.0), 1e-313, 1e-313)

    def test_scaled_fallback(self):
        alloc = scaled_min_power(np.array([1.0, 1.0]), 1.0, QoSSpec(r_min=1.0), 1.0, 1.5)
        assert not alloc.qos_feasible
        assert alloc.spent == pytest.approx(1.5)
        # equal model SINR across users after scaling
        assert alloc.omega[0] == pytest.approx(alloc.omega[1])


def grid_search_best(gains, rho, qos, p_max, p_total, step=0.005):
    """Exhaustive-grid oracle for the greedy fill, <= 3 users.

    Maximizes sum log2(1 + rho g omega) over the omega grid subject to the
    QoS floor and the budget. Returns the best feasible sum rate.
    """
    ids = sorted(gains)
    floors = [(2.0 ** qos.r_min - 1.0) / (rho * gains[u]) for u in ids]
    budget = p_total / p_max
    axes = [np.arange(f, budget + step, step) for f in floors]
    best = -1.0
    for combo in itertools.product(*axes):
        if sum(combo) > budget + 1e-12:
            continue
        val = sum(np.log2(1 + rho * gains[u] * w) for u, w in zip(ids, combo))
        best = max(best, val)
    return best


class TestFillRemainingPower:
    def test_no_leftover_returns_floors(self):
        gains = {0: 1.0, 1: 0.5}
        qos = QoSSpec(r_min=1.0)
        omega_min = min_power_coefficients(as_array(gains), 1.0, qos, 1.0, 3.0)
        alloc = fill_remaining_power(omega_min, as_array(gains), 1.0, 1.0, 3.0, qos)
        assert alloc.omega.tolist() == pytest.approx(omega_min.tolist())

    def test_single_user_gets_everything(self):
        gains = {0: 2.0}
        qos = QoSSpec(r_min=1.0)
        omega_min = min_power_coefficients(as_array(gains), 1.0, qos, 1.0, 5.0)
        alloc = fill_remaining_power(omega_min, as_array(gains), 1.0, 1.0, 5.0, qos)
        assert alloc.spent == pytest.approx(5.0)

    def test_against_grid_oracle(self):
        # the spec's two-user shape, made feasible with rho = 10
        gains = {0: 1.0, 1: 0.25}
        rho, p_max, p_total = 10.0, 4.0, 4.0
        qos = QoSSpec(r_min=1.0, delta_r=0.05)
        omega_min = min_power_coefficients(as_array(gains), rho, qos, p_max, p_total)
        alloc = fill_remaining_power(omega_min, as_array(gains), rho, p_max, p_total, qos)
        achieved = sum(
            np.log2(1 + rho * gains[u] * w) for u, w in by_id(gains, alloc.omega).items()
        )
        oracle = grid_search_best(gains, rho, qos, p_max, p_total)
        assert achieved >= 0.98 * oracle

    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        headroom=st.floats(1.0, 20.0),
    )
    @settings(**SETTINGS)
    def test_constraints_always_hold(self, n, seed, headroom):
        rng = np.random.default_rng(seed)
        gains = {i: float(10 ** rng.uniform(-2, 1)) for i in range(n)}
        rho = 10.0
        qos = QoSSpec(r_min=1.0, delta_r=0.05)
        p_max = 1.0
        floor_power = sum(
            (2.0 ** qos.r_min - 1.0) / (rho * g) for g in gains.values()
        )
        p_total = floor_power * headroom
        omega_min = min_power_coefficients(as_array(gains), rho, qos, p_max, p_total)
        alloc = fill_remaining_power(omega_min, as_array(gains), rho, p_max, p_total, qos)
        assert alloc.spent <= p_total + 1e-9
        for uid, w in by_id(gains, alloc.omega).items():
            assert w >= omega_min[uid] - 1e-12
            se = np.log2(1 + rho * gains[uid] * w)
            assert se >= qos.r_min - 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_monotone_in_budget(self, seed):
        rng = np.random.default_rng(seed)
        gains = {i: float(10 ** rng.uniform(-2, 1)) for i in range(3)}
        rho, p_max = 5.0, 1.0
        qos = QoSSpec(r_min=1.0, delta_r=0.05)
        floor_power = sum((2.0 ** qos.r_min - 1.0) / (rho * g) for g in gains.values())

        def model_sum(p_total):
            omega_min = min_power_coefficients(as_array(gains), rho, qos, p_max, p_total)
            alloc = fill_remaining_power(omega_min, as_array(gains), rho, p_max, p_total, qos)
            omega = by_id(gains, alloc.omega)
            return sum(np.log2(1 + rho * gains[u] * w) for u, w in omega.items())

        lo = model_sum(floor_power * 1.5)
        hi = model_sum(floor_power * 3.0)
        assert hi >= lo - 1e-9

    @pytest.mark.parametrize("p_max, p_total", [
        (float("nan"), 4.0), (1.0, float("nan")), (1.0, float("inf")),
        (float("inf"), 4.0),
    ])
    def test_non_finite_budget_raises(self, p_max, p_total):
        gains = np.array([1.0, 0.3])
        qos = QoSSpec(r_min=1.0, delta_r=0.05)
        omega_min = np.array([0.1, 0.3])
        with deadline(5.0), pytest.raises(ValueError, match="not finite"):
            fill_remaining_power(omega_min, gains, 10.0, p_max, p_total, qos)

    def test_greedy_local_optimality(self):
        # moving one granted delta_r step to any other user cannot help
        gains = {0: 1.0, 1: 0.3, 2: 0.05}
        rho, p_max, p_total = 10.0, 1.0, 4.0
        qos = QoSSpec(r_min=1.0, delta_r=0.05)
        omega_min = min_power_coefficients(as_array(gains), rho, qos, p_max, p_total)
        alloc = fill_remaining_power(omega_min, as_array(gains), rho, p_max, p_total, qos)

        def rate_of(omega):
            return sum(np.log2(1 + rho * gains[u] * w) for u, w in omega.items())

        omega = by_id(gains, alloc.omega)
        base = rate_of(omega)
        step = 2.0 ** qos.delta_r
        for src in gains:
            granted = omega[src] - omega_min[src]
            if granted <= 1e-12:
                continue
            se_src = np.log2(1 + rho * gains[src] * omega[src])
            dp_src = (1 - 1 / step) * (2.0 ** se_src) / (rho * gains[src])
            take = min(dp_src, granted)
            for dst in gains:
                if dst == src:
                    continue
                se_dst = np.log2(1 + rho * gains[dst] * omega[dst])
                dp_dst = (step - 1) * (2.0 ** se_dst) / (rho * gains[dst])
                moved = dict(omega)
                moved[src] -= take
                moved[dst] += min(take, dp_dst)
                assert rate_of(moved) <= base + 1e-9


def reference_fill(omega_min, gains, rho, p_max, p_total, qos):
    """The greedy fill as a heap loop, the oracle for fill_remaining_power.

    The heap is keyed by p_max * 2^R / (rho * g), ties by user id; each pop
    grants one delta_r step at cost (2^delta_r - 1) * key and multiplies the
    key by 2^delta_r. When the leftover no longer covers the cheapest step,
    that user absorbs it as a partial grant.
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


def fill_case(seed, n, r_min, delta_r, headroom, tied):
    """Fill inputs keyed by user id, as reference_fill takes them: n users
    under shuffled ids, gains over three decades (drawn from a few values
    when tied, so keys tie across users), and a budget of headroom times
    the QoS floor power (or, at r_min = 0, times the floor power of
    r_min = 1)."""
    rng = np.random.default_rng(seed)
    g = 10.0 ** rng.uniform(-2.0, 1.0, n)
    if tied and n:
        g = rng.choice(g[: max(1, n // 8)], n)
    ids = rng.permutation(3 * n + 1)[:n]
    gains = {int(u): float(x) for u, x in zip(ids, g)}
    rho, p_max = 10.0, float(rng.choice([1.0, 2.5]))
    qos = QoSSpec(r_min=r_min, delta_r=delta_r)
    # the floor power summed as min_power_coefficients sums it, so a
    # headroom of exactly 1 leaves no leftover rather than a deficit
    need = 2.0 ** r_min - 1.0
    floor_w = p_max * sum(need / (rho * gains[u]) for u in sorted(gains))
    if floor_w == 0.0:
        floor_w = p_max * sum(1.0 / (rho * x) for x in g) or 1.0
    p_total = headroom * floor_w
    omega_min = by_id(
        gains, min_power_coefficients(as_array(gains), rho, qos, p_max, p_total)
    )
    return omega_min, gains, rho, p_max, p_total, qos


def fill(omega_min, gains, *rest):
    """fill_remaining_power on arguments keyed by user id: the users go in
    user-id order, and omega comes back keyed by user id."""
    got = fill_remaining_power(as_array(omega_min), as_array(gains), *rest)
    return by_id(gains, got.omega), got


class TestFillMatchesHeap:
    """The closed-form replay equals the heap loop bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 400),
        r_min=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        delta_r=st.sampled_from([0.05, 0.1, 0.5]),
        headroom=st.floats(1.0, 30.0),
        tied=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_heap(self, seed, n, r_min, delta_r, headroom, tied):
        args = fill_case(seed, n, r_min, delta_r, headroom, tied)
        omega, got = fill(*args)
        want = reference_fill(*args)
        assert list(omega.items()) == list(want.omega.items())
        assert (got.p_max, got.p_total, got.qos_feasible) == (
            want.p_max, want.p_total, want.qos_feasible)

    def test_short_level_rebuilds(self, monkeypatch):
        # a water level far below the stop makes the replay run again
        monkeypatch.setattr(
            allocation, "_water_level", lambda key0, p_rem: float(key0.min())
        )
        for seed in range(5):
            args = fill_case(seed, 200, 1.0, 0.05, 20.0, seed % 2 == 0)
            omega, _got = fill(*args)
            assert list(omega.items()) == list(reference_fill(*args).omega.items())

    def test_non_advancing_step_raises(self):
        # 2^delta_r rounds to 1: every step is free and a heap loop never ends
        qos = QoSSpec(r_min=1.0, delta_r=1e-18)
        with deadline(5.0), pytest.raises(ValueError, match="finite positive"):
            fill_remaining_power(np.array([0.1]), np.array([1.0]), 10.0, 1.0, 4.0, qos)

    def test_memory_follows_grants(self):
        # 1200 users at a 50 dBm budget: 32k grants, up to 111 for one
        # user. The candidate keys stop near the water level, so the call's
        # peak stays under 1 MB; the keys alone of an n x k_max candidate
        # set would take 1.1 MB.
        from hapsim.config import ScenarioConfig
        from hapsim.harness import dbm_to_watts, prepare_trial

        cfg = ScenarioConfig(bandwidth=20e6, r=1, quadrature_points=2)
        state = prepare_trial(cfg, 42, 0)
        p = dbm_to_watts(50.0)
        rho, qos = cfg.rho(p), cfg.qos()
        omega_min = min_power_coefficients(state.gain, rho, qos, p, p)
        assert len(omega_min) == 1200
        tracemalloc.start()
        try:
            got = fill_remaining_power(omega_min, state.gain, rho, p, p, qos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        gains = dict(zip(state.served.user_id.tolist(), state.gain.tolist()))
        want = reference_fill(by_id(gains, omega_min), gains, rho, p, p, qos)
        assert list(by_id(gains, got.omega).items()) == list(want.omega.items())
