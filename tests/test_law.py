"""The channel draws follow the model's law, whatever sampler draws them.

For a draw h ~ CN(m, C) and a unit vector v, x = |h^H v|^2 has mean a + s
and variance s^2 + 2as, with a = |m^H v|^2 and s = v^H C v. Here v is each
served user's own unit steering vector, m its LoS channel from
los_channel, and s the one-ring quadrature written out in the element
domain, s = beta_nlos * sum_n w_n |a_n^H v|^2 over the same Gauss-Legendre
nodes the pipeline takes (not through correlation_matrices). Over every
served user of a run of trials,

    z = sum(x - a - s) / sqrt(sum(s^2 + 2as))

is standard normal to the central limit, so |z| <= 4 must hold.

Each trial count was fixed before z was looked at, large enough that a
covariance 5% off in scale moves z by at least 5; that power is asserted
before z is. The counts and the seed are part of the check: a failing z
is a finding, not a reason to re-seed or resize the run.
"""

import numpy as np
import pytest

from hapsim.channel import composite_steering, converged_nodes, large_scale_fading, los_channel
from hapsim.config import ScenarioConfig
from hapsim.harness import place_and_cluster, prepare_trial

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


def trial_moments(cfg, trial):
    """(x, a, s) of every served user of one trial, in user-id order."""
    state = prepare_trial(cfg, cfg.seed, trial)
    # replay the placement and fading draws, which come before the channel
    # draw on the trial's stream
    served, _unserved, rng = place_and_cluster(cfg, cfg.seed, trial)
    fading = large_scale_fading(served.distance, cfg.carrier_freq, cfg.fading_model(), rng)
    assert np.array_equal(served.user_id, state.served.user_id)
    assert np.array_equal(fading.beta_los, state.gain)
    acfg, spread, angles = cfg.array_config(), cfg.scattering_spread(), served.angles
    v = composite_steering(angles.mu_phi, angles.mu_h, acfg)
    x = np.abs(np.sum(state.channels.conj() * v, axis=1)) ** 2
    a = np.abs(np.sum(los_channel(fading, angles, acfg).conj() * v, axis=1)) ** 2
    q = converged_nodes(spread, acfg, cfg.quadrature_points)
    s = np.empty(len(v))
    for lo in range(0, len(v), 100):  # node responses of 100 users at a time
        resp, w = node_responses(angles.azimuth[lo:lo + 100], angles.elevation[lo:lo + 100],
                                 spread, acfg, q)
        proj = np.abs(np.einsum("umn,um->un", resp.conj(), v[lo:lo + 100])) ** 2
        s[lo:lo + 100] = fading.beta_nlos[lo:lo + 100] * (proj @ w)
    return x, a, s


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_draws_follow_the_law(name):
    cfg, trials = CONFIGS[name]
    x, a, s = map(np.concatenate, zip(*(trial_moments(cfg, t) for t in range(trials))))
    sd = np.sqrt(np.sum(s * s + 2.0 * a * s))
    # power: a covariance scaled by 1.05 moves the mean of x by 0.05 s
    assert 0.05 * np.sum(s) / sd >= 5.0
    z = np.sum(x - a - s) / sd
    assert abs(z) <= 4.0, f"z = {z:.2f} over {len(x)} users"
