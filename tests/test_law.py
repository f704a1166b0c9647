"""The model's law, pinned across versions, whatever sampler draws it.

For a draw h ~ CN(m, C) and a unit vector v, x = |h^H v|^2 has mean a + s
and variance s^2 + 2as, with a = |m^H v|^2 and s = v^H C v. Here m is a
user's LoS channel from los_channel, and s the one-ring quadrature
written out in the element domain, s = beta_nlos * sum_n w_n |a_n^H v|^2
over the same Gauss-Legendre nodes the pipeline takes (not through
correlation_matrices). Two checks take x from the pipeline: each served
user's draw against its own unit steering vector, and one interference
gain per target user that build_interference_map stores, against the
interferer's unit steering vector. Over a run of trials,

    z = sum(x - a - s) / sqrt(sum(s^2 + 2as))

is standard normal to the central limit, so |z| <= 4 must hold.

Each trial count was fixed before z was looked at, large enough that a
covariance 5% off in scale moves z by at least 5; that power is asserted
before z is. The counts and the seed are part of the check: a failing z
is a finding, not a reason to re-seed or resize the run.

A third check pins sweep_power's means on the tiny, reuse and disk golden
configs at 400 trials: tests/golden/law/<config>.csv holds the means and
standard errors of an earlier version (written by the sweep-power command
below), and every later version's means must lie within z = 4 of them on
the combined standard error. Unlike the byte goldens, this table spans
re-baselines that redraw or re-round every realization.

    hapsim sweep-power --powers-dbm 30,40,46 --trials 400 \\
        --config tests/golden/<config>.cfg --out <dir>

A fourth, fast check pins the identity the allocator budgets QoS on:
beta_los is the gain |m^H p|^2 of the LoS mean m on the user's own
precoder column p, with m and p built from one steering table as
prepare_trial builds them.
"""

import csv
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from hapsim.channel import composite_steering, converged_nodes, large_scale_fading, los_channel
from hapsim.config import ScenarioConfig, load_config
from hapsim.harness import place_and_cluster, prepare_trial, sweep_power
from hapsim.rate import build_cluster_precoders

from oracles import node_responses

CONFIGS = {
    "20MHz-r1-2deg": (ScenarioConfig(bandwidth=20e6, r=1), 120),
    "10MHz-20deg-q16": (
        ScenarioConfig(bandwidth=10e6, spread_phi_deg=20.0, spread_theta_deg=20.0,
                       quadrature_points=16),
        700,
    ),
    "10MHz-disk-1200": (
        ScenarioConfig(bandwidth=10e6, quadrature_points=8, users_per_trial=1200), 140,
    ),
}

# layouts whose stored interference gains are checked: full occupancy
# under block reuse (108 cluster-blocks onto 100), and crowded disk drops
INTERFERENCE_CONFIGS = {
    "20MHz-r3-reuse": (ScenarioConfig(bandwidth=20e6, r=3), 1100),
    "10MHz-disk-1200": (
        ScenarioConfig(bandwidth=10e6, quadrature_points=8, users_per_trial=1200), 720,
    ),
}


def replayed_trial(cfg, trial):
    """The prepared trial with its served users' angles and fading, the
    latter replayed from the trial's stream."""
    state = prepare_trial(cfg, cfg.seed, trial)
    # replay the placement and fading draws, which come before the channel
    # draw on the trial's stream
    served, _unserved, rng = place_and_cluster(cfg, cfg.seed, trial)
    fading = large_scale_fading(
        served.distance, cfg.carrier_freq, cfg.sigma_sf, cfg.nlos_penalty_db, rng
    )
    assert np.array_equal(served.user_id, state.served.user_id)
    assert np.array_equal(fading.beta_los, state.gain)
    return state, served.angles, fading


def law_moments(cfg, angles, fading, users, v):
    """(a, s) of the given users (positions in user-id order), each
    against its own unit vector, a row of v."""
    acfg, spread = cfg.array_config(), cfg.scattering_spread()
    mean = los_channel(fading, composite_steering(angles.mu_phi, angles.mu_h, acfg))
    a = np.abs(np.sum(mean[users].conj() * v, axis=1)) ** 2
    q = converged_nodes(spread, acfg, cfg.quadrature_points)
    s = np.empty(len(users))
    for lo in range(0, len(users), 100):  # node responses of 100 users at a time
        chunk = users[lo:lo + 100]
        resp, w = node_responses(angles.azimuth[chunk], angles.elevation[chunk], spread, acfg, q)
        proj = np.abs(np.einsum("umn,um->un", resp.conj(), v[lo:lo + 100])) ** 2
        s[lo:lo + 100] = fading.beta_nlos[chunk] * (proj @ w)
    return a, s


def trial_moments(cfg, trial):
    """(x, a, s) of every served user of one trial against its own beam,
    in user-id order."""
    state, angles, fading = replayed_trial(cfg, trial)
    v = composite_steering(angles.mu_phi, angles.mu_h, cfg.array_config())
    x = np.abs(np.sum(state.channels.conj() * v, axis=1)) ** 2
    return (x, *law_moments(cfg, angles, fading, np.arange(len(v)), v))


def interference_moments(cfg, trial):
    """(x, a, s) of one stored interference term per target user: x the
    term's gain |h_u^H v|^2, v the interferer's unit steering vector.

    One term per user keeps the x's independent; a user's shared-block
    term (table column 1 + pos) is taken where it has one, else its first
    same-cluster term.
    """
    state, angles, fading = replayed_trial(cfg, trial)
    im = state.interference
    target, interferer, gain = im.terms
    user = target // (cfg.r + 1)
    pick = np.lexsort((target % (cfg.r + 1) == 0, user))
    pick = pick[np.diff(user[pick], prepend=-1) > 0]
    w = im.order[interferer[pick]]
    v = composite_steering(angles.mu_phi[w], angles.mu_h[w], cfg.array_config())
    return (gain[pick], *law_moments(cfg, angles, fading, im.order[user[pick]], v))


def z_score(moments, trials):
    """(power, z) over the trials' (x, a, s): power is the shift in z
    from a covariance 5% off in scale."""
    x, a, s = map(np.concatenate, zip(*(moments(t) for t in range(trials))))
    sd = np.sqrt(np.sum(s * s + 2.0 * a * s))
    return 0.05 * np.sum(s) / sd, np.sum(x - a - s) / sd


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_draws_follow_the_law(name):
    cfg, trials = CONFIGS[name]
    power, z = z_score(partial(trial_moments, cfg), trials)
    # power: a covariance scaled by 1.05 moves the mean of x by 0.05 s
    assert power >= 5.0
    assert abs(z) <= 4.0, f"z = {z:.2f}"


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(INTERFERENCE_CONFIGS))
def test_interference_gains_follow_the_law(name):
    cfg, trials = INTERFERENCE_CONFIGS[name]
    power, z = z_score(partial(interference_moments, cfg), trials)
    assert power >= 5.0
    assert abs(z) <= 4.0, f"z = {z:.2f}"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("config", ["disk", "reuse", "tiny"])
def test_allocator_gain_is_the_los_beam_gain(config):
    cfg = replace(load_config(GOLDEN / f"{config}.cfg"), seed=42)
    state, angles, fading = replayed_trial(cfg, 0)
    steering_rows = composite_steering(angles.mu_phi, angles.mu_h, cfg.array_config())
    order = state.interference.order
    mean = los_channel(fading, steering_rows)[order]
    precoders = build_cluster_precoders(steering_rows, order)
    beam_gain = np.abs(np.sum(mean.conj() * precoders, axis=1)) ** 2
    assert len(order) == len(state.gain) > 0
    np.testing.assert_allclose(beam_gain, state.gain[order], rtol=1e-12, atol=0.0)


@pytest.mark.slow
@pytest.mark.parametrize("config", ["disk", "reuse", "tiny"])
def test_sweep_means_hold_the_pinned_table(config):
    with open(GOLDEN / "law" / f"{config}.csv", newline="") as f:
        pinned = list(csv.DictReader(f))
    cfg = replace(load_config(GOLDEN / f"{config}.cfg"), trials=400)
    rows = sweep_power(cfg, [float(row["p_max_dbm"]) for row in pinned])
    assert len(rows) == len(pinned)
    for row, pin in zip(rows, pinned):
        assert (row["p_max_dbm"], row["L"], row["r"]) == (
            float(pin["p_max_dbm"]), int(pin["L"]), int(pin["r"])
        )
        se = np.hypot(row["stderr"], float(pin["stderr"]))
        z = (row["mean_sum_rate_bps"] - float(pin["mean_sum_rate_bps"])) / se
        assert abs(z) <= 4.0, f"{row['p_max_dbm']} dBm: z = {z:.2f}"
