from types import SimpleNamespace

import numpy as np
import pytest

from hapsim.geometry import ArrayConfig, AngularCoordinates
from hapsim.dofgrid import GridCell
from hapsim.allocation import PowerAllocation, QoSSpec, assign_resource_blocks, cluster_users
from hapsim.channel import composite_steering
from hapsim.rate import (
    ServedUser,
    build_cluster_precoders,
    build_interference_map,
    evaluate_objective,
)


def mu_only(mu_phi, mu_h):
    return AngularCoordinates(azimuth=0.0, elevation=0.0, mu_phi=mu_phi, mu_h=mu_h)


CFG = ArrayConfig(m_x=4, m_y=4)


def served(uid, cell, ang, channel, ts=1.0):
    return ServedUser(user_id=uid, cell=cell, angles=ang, channel=channel, time_share=ts)


def by_user(report, im):
    """The report's evaluation-order arrays as dicts keyed by user id."""
    return SimpleNamespace(
        rates=dict(zip(im.user_ids, report.rates.tolist())),
        spectral_efficiency=dict(zip(im.user_ids, report.spectral_efficiency.tolist())),
        sinr=dict(zip(im.user_ids, report.sinr.tolist())),
        sum_rate=report.sum_rate,
    )


def objective(users, plan, power, qos, rho, bw_rb=180e3, gains=None):
    """evaluate_objective with the users' own interference map, its report
    keyed by user id; allocator gains default to the realized own-beam
    gains |h^H p|^2."""
    im = build_interference_map(users, plan, build_cluster_precoders(users, CFG))
    if gains is None:
        gains = dict(zip(im.user_ids, im.own_gain.tolist()))
    report, cons = evaluate_objective(users, plan, power, qos, rho, bw_rb, gains, im)
    return by_user(report, im), cons


def one_cluster(angles, channels, r=1, ts=1.0):
    """User k in section k + 1 of one cluster, with the given channel."""
    cells = [GridCell(sector=1, section=k + 1, subsection=3) for k in range(len(angles))]
    users = [served(k, c, a, h, ts) for k, (c, a, h) in enumerate(zip(cells, angles, channels))]
    plan = assign_resource_blocks(cluster_users([(k, c) for k, c in enumerate(cells)]), 50, r)
    return users, plan


def steer(ang, cfg=CFG):
    return composite_steering(ang.mu_phi, ang.mu_h, cfg)


def random_channels(seed, n):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(n)]


class TestClusterColumns:
    def test_single_member(self):
        ang = mu_only(0.3, 0.5)
        users, _ = one_cluster([ang], [steer(ang)])
        cols = build_cluster_precoders(users, CFG)[(1, 3)]
        assert cols.shape == (16, 1)
        assert np.linalg.norm(cols[:, 0]) == pytest.approx(1.0)

    def test_orthogonal_offsets_identity_gram(self):
        angles = [mu_only(0.1, 0.2), mu_only(0.1 + 0.5, 0.2), mu_only(0.1, 0.2 + 0.5)]
        users, _ = one_cluster(angles, [steer(a) for a in angles])
        # given out of id order; columns still follow user id
        cols = build_cluster_precoders(users[::-1], CFG)[(1, 3)]
        gram = cols.conj().T @ cols
        assert np.allclose(gram, np.eye(3), atol=1e-10)
        for k, a in enumerate(angles):
            assert np.array_equal(cols[:, k], steer(a))

    def test_dirichlet_off_diagonal(self):
        cfg = ArrayConfig(m_x=4, m_y=1)
        angles = [mu_only(0.25, 0.7), mu_only(0.0, 0.7)]
        users, _ = one_cluster(angles, [np.zeros(4)] * 2)
        cols = build_cluster_precoders(users, cfg)[(1, 3)]
        gram = cols.conj().T @ cols
        assert abs(gram[0, 1]) == pytest.approx(0.6532814824381883, abs=1e-12)


class TestSinr:
    def test_lone_user(self):
        ang = mu_only(0.3, 0.4)
        users, plan = one_cluster([ang], [2.0 * steer(ang)])  # |h^H p|^2 = 4
        power = PowerAllocation(omega={0: 0.25}, p_max=1.0, p_total=1.0)
        report, _ = objective(users, plan, power, QoSSpec(r_min=0.0), rho=8.0)
        assert report.sinr[0] == pytest.approx(8.0 * 0.25 * 4.0, rel=1e-12)
        assert report.rates[0] == pytest.approx(180e3 * np.log2(9.0), rel=1e-12)

    def test_orthogonal_cluster_no_interference(self):
        angles = [mu_only(0.1, 0.2), mu_only(0.6, 0.2)]
        users, plan = one_cluster(angles, [steer(a) for a in angles])
        power = PowerAllocation(omega={0: 1.0, 1: 1.0}, p_max=1.0, p_total=2.0)
        report, _ = objective(users, plan, power, QoSSpec(r_min=0.0), rho=1.0)
        # interference-free: sinr = rho * omega * |h^H p|^2 = 1
        assert report.sinr[0] == pytest.approx(1.0, rel=1e-9)

    def test_matches_naive_resummation(self):
        angles = [mu_only(0.1 * i, 0.3 + 0.05 * i) for i in range(3)]
        channels = random_channels(3, 3)
        users, plan = one_cluster(angles, channels)
        omega = {0: 0.2, 1: 0.5, 2: 0.1}
        rho = 3.0
        power = PowerAllocation(omega=omega, p_max=1.0, p_total=1.0)
        report, _ = objective(users, plan, power, QoSSpec(r_min=0.0), rho)
        sig = rho * omega[1] * abs(np.vdot(channels[1], steer(angles[1]))) ** 2
        intf = sum(
            rho * omega[k] * abs(np.vdot(channels[1], steer(angles[k]))) ** 2
            for k in (0, 2)
        )
        assert report.sinr[1] == pytest.approx(sig / (intf + 1.0), rel=1e-12)

    def test_global_phase_invariance(self):
        angles = [mu_only(0.15, 0.45), mu_only(0.35, 0.45)]
        channels = random_channels(0, 2)
        power = PowerAllocation(omega={0: 0.4, 1: 0.6}, p_max=1.0, p_total=1.0)
        qos = QoSSpec(r_min=0.0)
        base, _ = objective(*one_cluster(angles, channels), power, qos, 2.0)
        rotated = [channels[0] * np.exp(1j * 1.234), channels[1]]
        rot, _ = objective(*one_cluster(angles, rotated), power, qos, 2.0)
        for uid in (0, 1):
            assert rot.sinr[uid] == pytest.approx(base.sinr[uid], rel=1e-12)
            assert rot.rates[uid] == pytest.approx(base.rates[uid], rel=1e-12)


class TestRate:
    """rate = time_share * r * bw_rb * log2(1 + sinr) for a lone user."""

    def lone_rate(self, omega, r=1, ts=1.0):
        ang = mu_only(0.2, 0.3)
        users, plan = one_cluster([ang], [steer(ang)], r=r, ts=ts)
        power = PowerAllocation(omega={0: omega}, p_max=1.0, p_total=1.0)
        report, _ = objective(users, plan, power, QoSSpec(r_min=0.0), rho=1.0)
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
    clusters = cluster_users([(0, c1), (1, c2)])
    plan = assign_resource_blocks(clusters, 50, 2)
    return users, plan


class TestEvaluateObjective:
    def test_single_user_sum(self):
        users, plan = two_user_setup()
        solo = [users[0]]
        power = PowerAllocation(omega={0: 0.5}, p_max=2.0, p_total=2.0)
        report, cons = objective(solo, plan, power, QoSSpec(r_min=0.0), rho=4.0)
        assert report.sum_rate == pytest.approx(report.rates[0])
        # closed form: 2 blocks of bw_rb at log2(1 + rho omega |h^H p|^2)
        expect = 2 * 180e3 * np.log2(1 + 4.0 * 0.5 * 1.0)
        assert report.rates[0] == pytest.approx(expect, rel=1e-12)
        assert cons.power_margin_w == pytest.approx(2.0 - 2.0 * 0.5)
        assert cons.qos_margin_model == pytest.approx(np.log2(3.0))

    def test_orthogonal_pair_equals_interference_free(self):
        users, plan = two_user_setup(mu2=0.1 + 0.5)
        power = PowerAllocation(omega={0: 0.3, 1: 0.7}, p_max=1.0, p_total=1.0)
        report, _ = objective(users, plan, power, QoSSpec(r_min=0.0), rho=5.0)
        for uid in (0, 1):
            free = 2 * 180e3 * np.log2(1 + 5.0 * power.omega[uid])
            assert report.rates[uid] == pytest.approx(free, rel=1e-9)

    def test_non_orthogonal_below_interference_free(self):
        users, plan = two_user_setup(mu2=0.1 + 0.37)
        power = PowerAllocation(omega={0: 0.5, 1: 0.5}, p_max=1.0, p_total=1.0)
        report, _ = objective(users, plan, power, QoSSpec(r_min=0.0), rho=50.0)
        for uid in (0, 1):
            free = 2 * 180e3 * np.log2(1 + 50.0 * 0.5)
            assert report.rates[uid] < free

    def test_omega_monotonicity_without_interference(self):
        users, plan = two_user_setup(mu2=0.1 + 0.5)
        lo = PowerAllocation(omega={0: 0.2, 1: 0.2}, p_max=1.0, p_total=1.0)
        hi = PowerAllocation(omega={0: 0.4, 1: 0.4}, p_max=1.0, p_total=1.0)
        qos = QoSSpec(r_min=0.0)
        r_lo, _ = objective(users, plan, lo, qos, 5.0)
        r_hi, _ = objective(users, plan, hi, qos, 5.0)
        assert all(r_hi.rates[u] >= r_lo.rates[u] - 1e-9 for u in (0, 1))

    def test_constraint_margins_hand_checked(self):
        users, plan = two_user_setup(mu2=0.1 + 0.5)
        power = PowerAllocation(omega={0: 0.25, 1: 0.25}, p_max=2.0, p_total=4.0)
        gains = {0: 1.0, 1: 1.0}
        report, cons = objective(
            users, plan, power, QoSSpec(r_min=1.0), rho=8.0, gains=gains
        )
        assert cons.power_margin_w == pytest.approx(4.0 - 2.0 * 0.5)
        # model SE = log2(1 + 8 * 0.25) = log2(3)
        assert cons.qos_margin_model == pytest.approx(np.log2(3.0) - 1.0)
        # orthogonal pair: realized SE equals the model SE
        assert cons.qos_margin_realized == pytest.approx(np.log2(3.0) - 1.0)

    def test_time_shared_cell_splits_rate(self):
        a = mu_only(0.2, 0.4)
        c = GridCell(sector=1, section=1, subsection=2)
        h = composite_steering(a.mu_phi, a.mu_h, CFG)
        users = [served(0, c, a, h, ts=0.5), served(1, c, a, h, ts=0.5)]
        plan = assign_resource_blocks(cluster_users([(0, c), (1, c)]), 50, 1)
        power = PowerAllocation(omega={0: 0.5, 1: 0.5}, p_max=1.0, p_total=1.0)
        report, _ = objective(users, plan, power, QoSSpec(r_min=0.0), rho=10.0)
        # same channel, same omega, half airtime each
        assert report.rates[0] == pytest.approx(report.rates[1], rel=1e-12)
        full = 180e3 * np.log2(1 + 10.0 * 0.5)
        assert report.rates[0] + report.rates[1] == pytest.approx(full, rel=1e-9)

    def test_empty_input(self):
        _, plan = two_user_setup()
        power = PowerAllocation(omega={}, p_max=1.0, p_total=1.0)
        report, cons = objective([], plan, power, QoSSpec(r_min=1.0), rho=1.0)
        assert report.sum_rate == 0.0
        assert cons.power_margin_w == 1.0
        assert cons.qos_margin_model == float("inf")

    def test_map_of_another_trial_raises(self):
        users, plan = two_user_setup()
        im = build_interference_map(users, plan, build_cluster_precoders(users, CFG))
        power = PowerAllocation(omega={0: 0.5}, p_max=1.0, p_total=1.0)
        with pytest.raises(ValueError, match="interference map"):
            evaluate_objective(
                users[:1], plan, power, QoSSpec(r_min=0.0), 1.0, 180e3, {0: 1.0}, im
            )


def reference_objective(users, plan, omega, rho, bw_rb, cfg):
    """Per-user, per-block loop form of evaluate_objective's rates.

    The loop the batched evaluation replaced; it performs the same
    floating-point operations in the same order, so results must be equal
    bit for bit, not merely close.
    """
    groups = {}
    for u in users:
        groups.setdefault((u.cell.sector, u.cell.subsection), []).append(u)
    precoders = build_cluster_precoders(users, cfg)
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


class TestInterferenceMapMatchesLoop:
    """The power-free precomputation must not move a bit of the rates."""

    @pytest.mark.parametrize(
        "kw, reuse, shared",
        [
            # full occupancy, 36 x 3 = 108 cluster-blocks wrap onto 100 blocks
            (dict(bandwidth=20e6, r=3), True, False),
            # disk drops: crowded cells time-share, groups of many sizes
            (dict(bandwidth=10e6, r=2, users_per_trial=400), False, True),
            # disk drops under reuse: 64 x 1 cluster-blocks onto 60 blocks
            (dict(bandwidth=20e6, nbr=60, r=1, users_per_trial=300), True, True),
        ],
    )
    def test_bitwise_equal(self, kw, reuse, shared):
        from hapsim.config import ScenarioConfig
        from hapsim.harness import prepare_trial

        cfg = ScenarioConfig(quadrature_points=4, seed=3, **kw).resolve()
        state = prepare_trial(cfg, cfg.seed, 0)
        assert state.plan.reuse == reuse
        assert any(u.time_share < 1.0 for u in state.users) == shared
        rng = np.random.default_rng(4)
        omega = {u.user_id: float(w) for u, w in
                 zip(state.users, rng.uniform(1e-4, 1e-2, len(state.users)))}
        power = PowerAllocation(omega=omega, p_max=1.0, p_total=1.0)
        rho = cfg.rho()
        report, _ = evaluate_objective(
            state.users, state.plan, power, QoSSpec(), rho, cfg.bw_rb,
            state.gains, state.interference,
        )
        report = by_user(report, state.interference)
        rates, ses, total = reference_objective(
            state.users, state.plan, omega, rho, cfg.bw_rb, cfg.array_config()
        )
        assert report.rates == rates
        assert report.spectral_efficiency == ses
        assert report.sum_rate == total
