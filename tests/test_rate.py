from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hapsim.geometry import ArrayConfig, AngularCoordinates
from hapsim.dofgrid import GridCell
from hapsim.allocation import (
    PowerAllocation,
    QoSSpec,
    ResourcePlan,
    assign_resource_blocks,
    cluster_users,
)
from hapsim.channel import composite_steering
from hapsim.rate import (
    UserCell,
    build_cluster_precoders,
    build_interference_map,
    evaluate_objective,
)

from oracles import (
    ServedUser,
    array_trial,
    cluster_precoders_ref,
    cluster_users_ref,
    interference_map_ref,
    trial_users,
    user_arrays,
)


def mu_only(mu_phi, mu_h):
    return AngularCoordinates(azimuth=0.0, elevation=0.0, mu_phi=mu_phi, mu_h=mu_h)


CFG = ArrayConfig(m_x=4, m_y=4)
NBR = 50  # blocks of the plans plan_for builds


def served(uid, cell, ang, channel, ts=1.0):
    return ServedUser(
        user_id=uid, cell=cell, mu_phi=ang.mu_phi, mu_h=ang.mu_h,
        channel=np.asarray(channel), time_share=ts,
    )


def alloc(omega, p_max, p_total):
    """A PowerAllocation from omega keyed by user id."""
    return PowerAllocation(
        omega=np.array([omega[u] for u in sorted(omega)], dtype=float),
        p_max=p_max, p_total=p_total,
    )


def by_user(report, ids):
    """The report with its arrays, in user-id order, as dicts keyed by the
    ascending user ids."""
    return SimpleNamespace(
        rates=dict(zip(ids, report.rates.tolist())),
        spectral_efficiency=dict(zip(ids, report.spectral_efficiency.tolist())),
        sinr=dict(zip(ids, (np.exp2(report.spectral_efficiency) - 1.0).tolist())),
        sum_rate=report.sum_rate,
        power_margin_w=report.power_margin_w,
        qos_margin_model=report.qos_margin_model,
        qos_margin_realized=report.qos_margin_realized,
    )


def cells(arrays):
    return tuple(map(
        UserCell, arrays.user_id.tolist(),
        map(GridCell, arrays.sector.tolist(), arrays.section.tolist(),
            arrays.subsection.tolist()),
    ))


def objective(users, plan, power, qos, rho, bw_rb=180e3, gains=None):
    """evaluate_objective with the users' own interference map, its report
    keyed by user id; allocator gains default to the realized own-beam
    gains |h^H p|^2. The users' declared time shares replace the ones
    their cells give, so a lone user can hold part of its slot."""
    u, _groups, _plan, im = array_trial(users, NBR, plan.rb_per_user, CFG)
    share = {v.user_id: v.time_share for v in users}
    im = replace(im, time_share=np.array([share[uid] for uid in u.user_id.tolist()])[im.order])
    if gains is None:
        gains = np.empty(len(im.order))
        gains[im.order] = im.own_gain
    else:
        gains = np.array([gains[uid] for uid in u.user_id.tolist()])
    report = evaluate_objective(cells(u), plan, power, qos, rho, bw_rb, gains, im)
    return by_user(report, u.user_id.tolist())


def plan_for(users, r, nbr=NBR):
    u = user_arrays(users)
    groups = cluster_users(u.user_id, u.sector, u.section, u.subsection)
    return assign_resource_blocks(groups.cluster_ids, nbr, r)


def precoder(users, key, cfg=CFG):
    """The (M, n) precoder of the (sector, cluster) group key, the users'
    arrays taken in the order given."""
    u = user_arrays(users)
    groups = cluster_users(u.user_id, u.sector, u.section, u.subsection)
    rows = build_cluster_precoders(composite_steering(u.mu_phi, u.mu_h, cfg), groups.order)
    first = groups.order[groups.starts[:-1]]
    g = list(zip(u.sector[first].tolist(), u.subsection[first].tolist())).index(key)
    return rows[groups.starts[g]:groups.starts[g + 1]].T


def one_cluster(angles, channels, r=1, ts=1.0):
    """User k in section k + 1 of one cluster, with the given channel."""
    cells = [GridCell(sector=1, section=k + 1, subsection=3) for k in range(len(angles))]
    users = [served(k, c, a, h, ts) for k, (c, a, h) in enumerate(zip(cells, angles, channels))]
    return users, plan_for(users, r)


def steer(ang, cfg=CFG):
    return composite_steering(ang.mu_phi, ang.mu_h, cfg)


def random_channels(seed, n):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(n)]


class TestClusterColumns:
    def test_single_member(self):
        ang = mu_only(0.3, 0.5)
        users, _ = one_cluster([ang], [steer(ang)])
        cols = precoder(users, (1, 3))
        assert cols.shape == (16, 1)
        assert np.linalg.norm(cols[:, 0]) == pytest.approx(1.0)

    def test_orthogonal_offsets_identity_gram(self):
        angles = [mu_only(0.1, 0.2), mu_only(0.1 + 0.5, 0.2), mu_only(0.1, 0.2 + 0.5)]
        users, _ = one_cluster(angles, [steer(a) for a in angles])
        # given out of id order; columns still follow user id
        cols = precoder(users[::-1], (1, 3))
        gram = cols.conj().T @ cols
        assert np.allclose(gram, np.eye(3), atol=1e-10)
        for k, a in enumerate(angles):
            assert np.array_equal(cols[:, k], steer(a))

    def test_dirichlet_off_diagonal(self):
        cfg = ArrayConfig(m_x=4, m_y=1)
        angles = [mu_only(0.25, 0.7), mu_only(0.0, 0.7)]
        users, _ = one_cluster(angles, [np.zeros(4)] * 2)
        cols = precoder(users, (1, 3), cfg)
        gram = cols.conj().T @ cols
        assert abs(gram[0, 1]) == pytest.approx(0.6532814824381883, abs=1e-12)


class TestSinr:
    def test_lone_user(self):
        ang = mu_only(0.3, 0.4)
        users, plan = one_cluster([ang], [2.0 * steer(ang)])  # |h^H p|^2 = 4
        power = alloc({0: 0.25}, p_max=1.0, p_total=1.0)
        report = objective(users, plan, power, QoSSpec(r_min=0.0), rho=8.0)
        assert report.sinr[0] == pytest.approx(8.0 * 0.25 * 4.0, rel=1e-12)
        assert report.rates[0] == pytest.approx(180e3 * np.log2(9.0), rel=1e-12)

    def test_orthogonal_cluster_no_interference(self):
        angles = [mu_only(0.1, 0.2), mu_only(0.6, 0.2)]
        users, plan = one_cluster(angles, [steer(a) for a in angles])
        power = alloc({0: 1.0, 1: 1.0}, p_max=1.0, p_total=2.0)
        report = objective(users, plan, power, QoSSpec(r_min=0.0), rho=1.0)
        # interference-free: sinr = rho * omega * |h^H p|^2 = 1
        assert report.sinr[0] == pytest.approx(1.0, rel=1e-9)

    def test_matches_naive_resummation(self):
        angles = [mu_only(0.1 * i, 0.3 + 0.05 * i) for i in range(3)]
        channels = random_channels(3, 3)
        users, plan = one_cluster(angles, channels)
        omega = {0: 0.2, 1: 0.5, 2: 0.1}
        rho = 3.0
        power = alloc(omega, p_max=1.0, p_total=1.0)
        report = objective(users, plan, power, QoSSpec(r_min=0.0), rho)
        sig = rho * omega[1] * abs(np.vdot(channels[1], steer(angles[1]))) ** 2
        intf = sum(
            rho * omega[k] * abs(np.vdot(channels[1], steer(angles[k]))) ** 2
            for k in (0, 2)
        )
        assert report.sinr[1] == pytest.approx(sig / (intf + 1.0), rel=1e-12)

    def test_global_phase_invariance(self):
        angles = [mu_only(0.15, 0.45), mu_only(0.35, 0.45)]
        channels = random_channels(0, 2)
        power = alloc({0: 0.4, 1: 0.6}, p_max=1.0, p_total=1.0)
        qos = QoSSpec(r_min=0.0)
        base = objective(*one_cluster(angles, channels), power, qos, 2.0)
        rotated = [channels[0] * np.exp(1j * 1.234), channels[1]]
        rot = objective(*one_cluster(angles, rotated), power, qos, 2.0)
        for uid in (0, 1):
            assert rot.sinr[uid] == pytest.approx(base.sinr[uid], rel=1e-12)
            assert rot.rates[uid] == pytest.approx(base.rates[uid], rel=1e-12)


class TestRate:
    """rate = time_share * r * bw_rb * log2(1 + sinr) for a lone user."""

    def lone_rate(self, omega, r=1, ts=1.0):
        ang = mu_only(0.2, 0.3)
        users, plan = one_cluster([ang], [steer(ang)], r=r, ts=ts)
        power = alloc({0: omega}, p_max=1.0, p_total=1.0)
        report = objective(users, plan, power, QoSSpec(r_min=0.0), rho=1.0)
        return report.rates[0]

    def test_zero_sinr(self):
        assert self.lone_rate(0.0, r=3) == 0.0

    def test_unit_sinr(self):
        assert self.lone_rate(1.0) == pytest.approx(180e3)

    def test_time_share_linear(self):
        full = self.lone_rate(4.7, r=2)
        assert self.lone_rate(4.7, r=2, ts=0.5) == pytest.approx(full / 2)


def two_user_setup(mu2=0.6, beta=1.0):
    """Two users in one cluster, different sections, deterministic channels."""
    a1, a2 = mu_only(0.1, 0.3), mu_only(mu2, 0.3)
    c1 = GridCell(sector=1, section=1, subsection=4)
    c2 = GridCell(sector=1, section=2, subsection=4)
    h1 = np.sqrt(beta) * composite_steering(a1.mu_phi, a1.mu_h, CFG)
    h2 = np.sqrt(beta) * composite_steering(a2.mu_phi, a2.mu_h, CFG)
    users = [served(0, c1, a1, h1), served(1, c2, a2, h2)]
    return users, plan_for(users, 2)


class TestEvaluateObjective:
    def test_single_user_sum(self):
        users, plan = two_user_setup()
        solo = [users[0]]
        power = alloc({0: 0.5}, p_max=2.0, p_total=2.0)
        report = objective(solo, plan, power, QoSSpec(r_min=0.0), rho=4.0)
        assert report.sum_rate == pytest.approx(report.rates[0])
        # closed form: 2 blocks of bw_rb at log2(1 + rho omega |h^H p|^2)
        expect = 2 * 180e3 * np.log2(1 + 4.0 * 0.5 * 1.0)
        assert report.rates[0] == pytest.approx(expect, rel=1e-12)
        assert report.power_margin_w == pytest.approx(2.0 - 2.0 * 0.5)
        assert report.qos_margin_model == pytest.approx(np.log2(3.0))

    def test_orthogonal_pair_equals_interference_free(self):
        users, plan = two_user_setup(mu2=0.1 + 0.5)
        power = alloc({0: 0.3, 1: 0.7}, p_max=1.0, p_total=1.0)
        report = objective(users, plan, power, QoSSpec(r_min=0.0), rho=5.0)
        for uid in (0, 1):
            free = 2 * 180e3 * np.log2(1 + 5.0 * power.omega[uid])
            assert report.rates[uid] == pytest.approx(free, rel=1e-9)

    def test_non_orthogonal_below_interference_free(self):
        users, plan = two_user_setup(mu2=0.1 + 0.37)
        power = alloc({0: 0.5, 1: 0.5}, p_max=1.0, p_total=1.0)
        report = objective(users, plan, power, QoSSpec(r_min=0.0), rho=50.0)
        for uid in (0, 1):
            free = 2 * 180e3 * np.log2(1 + 50.0 * 0.5)
            assert report.rates[uid] < free

    def test_omega_monotonicity_without_interference(self):
        users, plan = two_user_setup(mu2=0.1 + 0.5)
        lo = alloc({0: 0.2, 1: 0.2}, p_max=1.0, p_total=1.0)
        hi = alloc({0: 0.4, 1: 0.4}, p_max=1.0, p_total=1.0)
        qos = QoSSpec(r_min=0.0)
        r_lo = objective(users, plan, lo, qos, 5.0)
        r_hi = objective(users, plan, hi, qos, 5.0)
        assert all(r_hi.rates[u] >= r_lo.rates[u] - 1e-9 for u in (0, 1))

    def test_constraint_margins_hand_checked(self):
        users, plan = two_user_setup(mu2=0.1 + 0.5)
        power = alloc({0: 0.25, 1: 0.25}, p_max=2.0, p_total=4.0)
        gains = {0: 1.0, 1: 1.0}
        report = objective(
            users, plan, power, QoSSpec(r_min=1.0), rho=8.0, gains=gains
        )
        assert report.power_margin_w == pytest.approx(4.0 - 2.0 * 0.5)
        # model SE = log2(1 + 8 * 0.25) = log2(3)
        assert report.qos_margin_model == pytest.approx(np.log2(3.0) - 1.0)
        # orthogonal pair: realized SE equals the model SE
        assert report.qos_margin_realized == pytest.approx(np.log2(3.0) - 1.0)

    def test_time_shared_cell_splits_rate(self):
        a = mu_only(0.2, 0.4)
        c = GridCell(sector=1, section=1, subsection=2)
        h = composite_steering(a.mu_phi, a.mu_h, CFG)
        users = [served(0, c, a, h, ts=0.5), served(1, c, a, h, ts=0.5)]
        plan = plan_for(users, 1)
        power = alloc({0: 0.5, 1: 0.5}, p_max=1.0, p_total=1.0)
        report = objective(users, plan, power, QoSSpec(r_min=0.0), rho=10.0)
        # same channel, same omega, half airtime each
        assert report.rates[0] == pytest.approx(report.rates[1], rel=1e-12)
        full = 180e3 * np.log2(1 + 10.0 * 0.5)
        assert report.rates[0] + report.rates[1] == pytest.approx(full, rel=1e-9)

    def test_empty_input(self):
        _, plan = two_user_setup()
        power = alloc({}, p_max=1.0, p_total=1.0)
        report = objective([], plan, power, QoSSpec(r_min=1.0), rho=1.0)
        assert report.sum_rate == 0.0
        assert report.power_margin_w == 1.0
        assert report.qos_margin_model == float("inf")

    def test_map_of_another_trial_raises(self):
        users, plan = two_user_setup()
        im = array_trial(users, 50, 2, CFG)[3]
        power = alloc({0: 0.5}, p_max=1.0, p_total=1.0)
        with pytest.raises(ValueError, match="interference map"):
            evaluate_objective(
                users[:1], plan, power, QoSSpec(r_min=0.0), 1.0, 180e3,
                np.array([1.0]), im,
            )


def reference_objective(users, plan, omega, rho, bw_rb, cfg):
    """Per-user, per-block loop form of evaluate_objective's rates.

    The loop the batched evaluation replaced. It sums interference, block
    logs and the sum rate in its own order, so the batched results agree
    with it to rounding (assert_close), not bit for bit.
    """
    groups = {}
    for u in users:
        groups.setdefault((u.cell.sector, u.cell.subsection), []).append(u)
    precoders = cluster_precoders_ref(users, cfg)
    block_groups = {}
    if plan.reuse:
        for key in groups:
            for b in plan.cluster_blocks[key[1]]:
                block_groups.setdefault((key[0], b), []).append(key)
    rates, ses = {}, {}
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda u: u.user_id)
        prec = precoders[key]
        proj = np.abs(np.stack([u.channel for u in members]).conj() @ prec) ** 2
        omega_eff = np.array([omega[u.user_id] * u.time_share for u in members])
        blocks = plan.cluster_blocks[key[1]]
        for a, u in enumerate(members):
            own = float(proj[a, a]) * omega[u.user_id]
            mask = np.array([(v.cell != u.cell) and (b != a) for b, v in enumerate(members)])
            base_i = float(np.sum(omega_eff[mask] * proj[a, mask])) if mask.any() else 0.0
            se_sum = 0.0
            for b in blocks:
                extra = 0.0
                for other in block_groups.get((key[0], b), ()):
                    if other == key:
                        continue
                    others = sorted(groups[other], key=lambda v: v.user_id)
                    w = np.array([omega[v.user_id] * v.time_share for v in others])
                    gain = np.abs(u.channel.conj() @ precoders[other]) ** 2
                    extra += float(np.sum(w * gain))
                sinr_b = rho * own / (rho * (base_i + extra) + 1.0)
                se_sum += float(np.log2(1.0 + sinr_b))
            se = se_sum / len(blocks)
            ses[u.user_id] = se
            rates[u.user_id] = u.time_share * len(blocks) * bw_rb * se
    return rates, ses, float(sum(rates.values()))


def assert_close(got, want):
    """Equal to 1e-12 relative, entry by entry: a batched sum rounds
    differently from a per-user loop's."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def assert_report_matches_loop(report, rates, ses, total):
    """A by_user report against reference_objective's dicts and sum."""
    assert report.rates.keys() == rates.keys() == ses.keys()
    assert_close(list(report.rates.values()), [rates[u] for u in report.rates])
    assert_close(list(report.spectral_efficiency.values()), [ses[u] for u in report.rates])
    assert_close(report.sum_rate, total)


class TestInterferenceMapMatchesLoop:
    """The power-free precomputation holds the per-user loop's terms and
    scores to its rates."""

    @pytest.mark.parametrize(
        "kw, reuse, shared",
        [
            # full occupancy, 36 x 3 = 108 cluster-blocks wrap onto 100 blocks
            (dict(bandwidth=20e6, r=3), True, False),
            # disk drops: crowded cells time-share, groups of many sizes
            (dict(bandwidth=10e6, r=2, users_per_trial=400), False, True),
            # disk drops under reuse: 64 x 1 cluster-blocks onto 60 blocks;
            # m_y = 16, since on 4x4 no two present clusters share a block
            (dict(bandwidth=20e6, m_y=16, nbr=60, r=1, users_per_trial=300), True, True),
        ],
    )
    def test_rates_match_loop(self, kw, reuse, shared):
        from hapsim.config import ScenarioConfig
        from hapsim.harness import prepare_trial

        cfg = ScenarioConfig(quadrature_points=4, seed=3, **kw)
        state = prepare_trial(cfg, cfg.seed, 0)
        users = trial_users(state)
        assert state.plan.reuse == reuse
        assert any(u.time_share < 1.0 for u in users) == shared
        assert_map_equals_oracle(
            state.served.user_id, state.interference, users, state.plan, cfg.array_config()
        )
        rng = np.random.default_rng(4)
        omega = {u.user_id: float(w) for u, w in
                 zip(users, rng.uniform(1e-4, 1e-2, len(users)))}
        power = alloc(omega, p_max=1.0, p_total=1.0)
        rho = cfg.rho()
        report = evaluate_objective(
            state.users, state.plan, power, QoSSpec(), rho, cfg.bw_rb,
            state.gain, state.interference,
        )
        report = by_user(report, state.served.user_id.tolist())
        assert_report_matches_loop(report, *reference_objective(
            users, state.plan, omega, rho, cfg.bw_rb, cfg.array_config()
        ))


def assert_equals_oracles(user_id, time_share, plan, nbr, im, users, cfg):
    """An array trial (ids and time shares in user-id order, its plan over
    nbr blocks and interference map) equals the dict-based grouping and
    the per-user map on the same users, taken in user-id order as
    prepare_trial held them, as assert_map_equals_oracle checks it;
    returns the map's oracle."""
    users = sorted(users, key=lambda u: u.user_id)
    clusters = cluster_users_ref([(u.user_id, u.cell) for u in users])
    shares = {uid: ts for cl in clusters for uid, ts in cl.time_shares.items()}
    plan_ref = assign_resource_blocks(
        [cl.subsection_id for cl in clusters], nbr, plan.rb_per_user
    )
    assert time_share.tolist() == [shares[uid] for uid in user_id.tolist()]
    assert plan == plan_ref
    users = [replace(u, time_share=shares[u.user_id]) for u in users]
    return assert_map_equals_oracle(user_id, im, users, plan_ref, cfg)


def assert_map_equals_oracle(user_id, im, users, plan, cfg):
    """The interference map of users (in user-id order, with their time
    shares) under plan equals the per-target oracle: order, time shares,
    own gains, targets, interferer rows and term counts per target
    exactly, and the terms' gains to 1e-12; returns the oracle."""
    ref = interference_map_ref(users, plan, cluster_precoders_ref(users, cfg))
    assert user_id[im.order].tolist() == list(ref.user_ids)
    assert im.time_share.tolist() == ref.time_share.tolist()
    assert np.array_equal(im.own_gain, ref.own_gain)
    got = expand_terms(im)
    assert got.keys() == ref.terms.keys()
    for target, want in ref.terms.items():
        rows = [row for rows, _gains in want for row in rows]
        assert len(got[target]) == len(rows)
        assert sorted(got[target]) == sorted(rows)
        assert_close([got[target][row] for row in rows],
                     np.concatenate([gains for _rows, gains in want]))
    return ref


def expand_terms(im):
    """The map's terms as {target: {interferer row: gain}}; fails if a
    target lists one interferer twice."""
    terms = {}
    for target, row, gain in zip(*(a.tolist() for a in im.terms)):
        assert row not in terms.setdefault(target, {})
        terms[target][row] = gain
    return terms


class TestArrayTrialMatchesOracles:
    """Clustering and the interference map, arrays against the per-user
    dict forms in tests/oracles.py."""

    @pytest.mark.parametrize(
        "kw, reuse, shared",
        [
            # full occupancy, the golden tiny config
            (dict(), False, False),
            # full occupancy under reuse: 4 x 3 cluster-blocks onto 10 blocks
            (dict(r=3), True, False),
            # disk drops: crowded cells time-share
            (dict(users_per_trial=150), False, True),
            # 36 x 3 = 108 cluster-blocks onto 100 blocks
            (dict(bandwidth=20e6, m_y=16, r=3), True, False),
            # disk drops under reuse: 64 x 1 cluster-blocks onto 60 blocks
            (dict(bandwidth=20e6, m_y=16, nbr=60, r=1, users_per_trial=300), True, True),
            # an empty trial
            (dict(users_per_trial=0), False, False),
        ],
    )
    def test_prepared_trial(self, kw, reuse, shared):
        from hapsim.config import ScenarioConfig
        from hapsim.harness import prepare_trial

        base = dict(bandwidth=1.8e6, m_y=8, quadrature_points=2, seed=7)
        cfg = ScenarioConfig(**{**base, **kw})
        for trial in range(2):
            state = prepare_trial(cfg, cfg.seed, trial)
            assert state.plan.reuse == reuse
            assert bool(np.any(state.time_share < 1.0)) == shared
            assert_equals_oracles(
                state.served.user_id, state.time_share, state.plan, cfg.nbr,
                state.interference, trial_users(state), cfg.array_config(),
            )

    @pytest.mark.parametrize("nbr, r", [(50, 2), (10, 3)])
    def test_all_users_in_one_cell(self, nbr, r):
        rng = np.random.default_rng(11)
        c = GridCell(sector=2, section=3, subsection=4)
        users = [
            served(uid, c, mu_only(*rng.uniform(-0.5, 0.5, 2)), h)
            for uid, h in zip([9, 2, 5, 30, 4], random_channels(5, 5))
        ]
        u, groups, plan, im = array_trial(users, nbr, r, CFG)
        assert groups.time_share.tolist() == [0.2] * 5
        assert_equals_oracles(u.user_id, groups.time_share, plan, nbr, im, users, CFG)

    def test_blocks_held_by_many_groups(self):
        # 5 clusters x 3 blocks onto 4 blocks: every block has 3 or 4
        # holders per sector, and user ids do not follow the group keys,
        # so the order of a block's other groups matters
        rng = np.random.default_rng(12)
        keys = [(s, sec, l) for s in (1, 2) for sec in (1, 2, 3) for l in range(1, 6)]
        ids = rng.permutation(200)[:len(keys) + 6]
        cells = [GridCell(*k) for k in keys] + [GridCell(1, 2, 5)] * 3 + [GridCell(2, 1, 1)] * 3
        users = [
            served(int(uid), c, mu_only(*rng.uniform(-0.5, 0.5, 2)), h)
            for uid, c, h in zip(ids, cells, random_channels(13, len(cells)))
        ]
        u, groups, plan, im = array_trial(users, 4, 3, CFG)
        assert plan.reuse
        ref = assert_equals_oracles(u.user_id, groups.time_share, plan, 4, im, users, CFG)
        assert max(len(entries) for entries in ref.terms.values()) == 3

    def test_empty_users(self):
        u, groups, plan, im = array_trial([], 50, 1, CFG)
        assert len(im.order) == 0 and plan.cluster_blocks == {}
        assert_equals_oracles(u.user_id, groups.time_share, plan, 50, im, [], CFG)


class TestScoringIgnoresBlockRule:
    """Scoring reads only the map's term table, so a plan that shares
    blocks by any rule scores as the per-block loop does."""

    def test_hand_built_sharing(self):
        # 5 clusters x 2 blocks onto 5 blocks, not (l - 1) * r mod nbr:
        # block 0 has three holders, and cell (1, 1, 3) time-shares
        plan = ResourcePlan(
            rb_per_user=2, reuse=True,
            cluster_blocks={1: (0, 1), 2: (2, 3), 3: (1, 4), 4: (3, 0), 5: (2, 0)},
        )
        rng = np.random.default_rng(21)
        keys = [(s, sec, l) for s in (1, 2) for sec in (1, 2) for l in range(1, 6)]
        grid = [GridCell(*k) for k in keys] + [GridCell(1, 1, 3)] * 2
        users = sorted((
            served(int(uid), c, mu_only(*rng.uniform(-0.5, 0.5, 2)), h)
            for uid, c, h in zip(rng.permutation(100), grid, random_channels(21, len(grid)))
        ), key=lambda v: v.user_id)
        u = user_arrays(users)
        groups = cluster_users(u.user_id, u.sector, u.section, u.subsection)
        assert plan != assign_resource_blocks(groups.cluster_ids, 5, 2)
        assert groups.time_share.min() < 1.0
        im = build_interference_map(
            groups, u.sector, u.section, u.subsection, u.channels, plan,
            build_cluster_precoders(composite_steering(u.mu_phi, u.mu_h, CFG), groups.order),
        )
        users = [replace(v, time_share=ts) for v, ts in zip(users, groups.time_share.tolist())]
        ref = assert_map_equals_oracle(u.user_id, im, users, plan, CFG)
        assert max(len(entries) for entries in ref.terms.values()) == 2

        omega = {v.user_id: float(w) for v, w in
                 zip(users, rng.uniform(1e-4, 1e-2, len(users)))}
        report = evaluate_objective(
            cells(u), plan, alloc(omega, 1.0, 1.0), QoSSpec(), 300.0, 180e3,
            np.ones(len(users)), im,
        )
        assert_report_matches_loop(
            by_user(report, u.user_id.tolist()),
            *reference_objective(users, plan, omega, 300.0, 180e3, CFG),
        )
