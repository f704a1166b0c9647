import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapsim.geometry import (
    ArrayConfig,
    AngularCoordinates,
    UserPosition,
    element_indices,
    user_angles,
)
from hapsim import channel
from hapsim.channel import (
    ChannelStats,
    _axis_nodes,
    FadingModel,
    InvalidCovarianceError,
    LargeScaleFading,
    ScatteringSpread,
    composite_steering,
    correlation_matrices,
    large_scale_fading,
    los_channel,
    path_loss_db,
    sample_channel,
    steering,
)

from oracles import array_wave_vector, correlation_matrix, element_position

SETTINGS = {"max_examples": 60, "deadline": None}


def angles_at(mu_phi, mu_h):
    theta = float(np.arccos(np.clip(mu_h, -1.0, 1.0)))
    sin_t = max(np.sin(theta), 1e-12)
    phi = float(np.arccos(np.clip(mu_phi / sin_t, -1.0, 1.0)))
    return AngularCoordinates(azimuth=phi, elevation=theta, mu_phi=mu_phi, mu_h=mu_h)


class TestSteering:
    def test_mu_zero(self):
        assert np.allclose(steering(0.0, 2), np.array([1, 1]) / np.sqrt(2))

    def test_mu_one(self):
        assert np.allclose(steering(1.0, 2), np.array([1, -1]) / np.sqrt(2))

    def test_quarter_offset_orthogonal(self):
        # (1/4) * (1 - j - 1 + j) = 0
        ip = np.vdot(steering(0.0, 4), steering(0.5, 4))
        assert abs(ip) < 1e-14

    @given(mu=st.floats(-2, 2), m=st.integers(1, 32))
    @settings(**SETTINGS)
    def test_unit_norm(self, mu, m):
        assert np.linalg.norm(steering(mu, m)) == pytest.approx(1.0)

    @given(mu=st.floats(-2, 2), m=st.integers(2, 32), q=st.integers(-40, 40))
    @settings(**SETTINGS)
    def test_zero_interference_identity(self, mu, m, q):
        ip = np.vdot(steering(mu, m), steering(mu + 2 * q / m, m))
        if q % m != 0:
            assert abs(ip) < 1e-10
        else:
            assert abs(ip) == pytest.approx(1.0, abs=1e-10)

    @given(mu=st.floats(-2, 2), m=st.integers(1, 16))
    @settings(**SETTINGS)
    def test_two_periodic(self, mu, m):
        assert np.allclose(steering(mu, m), steering(mu + 2.0, m), atol=1e-12)


def directions(angles):
    """(azimuth, elevation) arrays of a list of AngularCoordinates."""
    return (np.array([a.azimuth for a in angles], dtype=float),
            np.array([a.elevation for a in angles], dtype=float))


class TestLosChannel:
    def test_single_element(self):
        cfg = ArrayConfig(m_x=1, m_y=1)
        fading = LargeScaleFading(beta_los=4.0, beta_nlos=0.4)
        h = los_channel(fading, angles_at(0.3, 0.5), cfg)
        assert np.allclose(h, [2.0])

    def test_norm_is_sqrt_beta(self):
        cfg = ArrayConfig(m_x=4, m_y=3)
        fading = LargeScaleFading(beta_los=2.5e-13, beta_nlos=0.0)
        h = los_channel(fading, angles_at(-0.4, 0.7), cfg)
        assert np.linalg.norm(h) ** 2 == pytest.approx(2.5e-13)

    def test_phases_match_wave_vector_form(self):
        # per-element exp(j k^T u_m) must reproduce the mu-space phases
        cfg = ArrayConfig(m_x=3, m_y=4)
        user = UserPosition(60e3, 35e3, 20e3)
        ang = user_angles(user, 0.35)
        fading = LargeScaleFading(beta_los=1.0, beta_nlos=0.0)
        h = los_channel(fading, ang, cfg)
        k = array_wave_vector(ang.azimuth, ang.elevation, cfg.wavelength)
        phases = np.array([
            np.exp(1j * k @ element_position(m, cfg))
            for m in range(1, cfg.m_total + 1)
        ])
        assert np.allclose(h * np.sqrt(cfg.m_total), phases, atol=1e-10)


class TestCorrelationMatrix:
    def setup_method(self):
        self.cfg = ArrayConfig(m_x=4, m_y=4)
        self.ang = angles_at(0.4, 0.55)
        self.spread = ScatteringSpread(np.radians(2.0), np.radians(2.0))

    def test_diagonal_is_beta(self):
        c = correlation_matrix(self.ang, self.spread, 0.37, self.cfg, 16)
        assert np.allclose(np.diag(c).real, 0.37, rtol=1e-6)
        assert np.allclose(np.diag(c).imag, 0.0, atol=1e-12)

    def test_hermitian_psd(self):
        c = correlation_matrix(self.ang, self.spread, 1.0, self.cfg, 16)
        assert np.allclose(c, c.conj().T, atol=1e-12)
        w = np.linalg.eigvalsh(c)
        assert w.min() >= -1e-10 * np.real(np.trace(c))

    def test_zero_spread_rank_one(self):
        c = correlation_matrix(self.ang, ScatteringSpread(0.0, 0.0), 2.0, self.cfg, 8)
        v = composite_steering(self.ang.mu_phi, self.ang.mu_h, self.cfg)
        # un-normalized phase vector outer product: beta * (sqrt(M) v)(sqrt(M) v)^H
        expect = 2.0 * self.cfg.m_total * np.outer(v, v.conj())
        assert np.allclose(c, expect, atol=1e-12)

    def test_small_spread_nearly_rank_one(self):
        tiny = ScatteringSpread(1e-4, 1e-4)
        c = correlation_matrix(self.ang, tiny, 1.0, self.cfg, 8)
        w = np.linalg.eigvalsh(c)
        assert w.max() >= 0.999 * np.real(np.trace(c))

    def test_two_element_against_fine_quadrature(self):
        cfg = ArrayConfig(m_x=2, m_y=1)
        ang = angles_at(0.0, 1.0)  # phi = 0, theta = 0
        spread = ScatteringSpread(np.radians(2.0), np.radians(2.0))
        coarse = correlation_matrix(ang, spread, 1.0, cfg, 32)
        fine = correlation_matrix(ang, spread, 1.0, cfg, 320)
        assert abs(coarse[0, 1] - fine[0, 1]) <= 1e-6 * abs(fine[0, 1])

    def test_doubling_stability(self):
        c1 = correlation_matrix(self.ang, self.spread, 1.0, self.cfg, 16)
        c2 = correlation_matrix(self.ang, self.spread, 1.0, self.cfg, 32)
        scale = np.abs(c2).max()
        assert np.abs(c1 - c2).max() < 1e-6 * scale


def reference_correlation_matrices(angles, spread, beta_nlos, cfg, quadrature_points, rule):
    """Element-domain one-ring covariances, beta * V diag(w) V^H per user.

    V holds the un-normalized array response at every (phi, theta) node, so
    this is the quadrature of the integral in correlation_matrices written
    out over all M^2 entries, without the lag structure.
    """
    i_idx, j_idx = element_indices(cfg)
    mats = []
    for a, beta in zip(angles, beta_nlos):
        phis, w_phi = _axis_nodes(np.array([a.azimuth]), spread.delta_phi,
                                  quadrature_points, rule)
        thes, w_th = _axis_nodes(np.array([a.elevation]), spread.delta_theta,
                                 quadrature_points, rule)
        phi, th = np.meshgrid(phis[0], thes[0], indexing="ij")
        mu_phi = (np.sin(th) * np.cos(phi)).ravel()
        mu_h = np.cos(th).ravel()
        phase = cfg.d_h * np.outer(i_idx, mu_phi) + cfg.d_v * np.outer(j_idx, mu_h)
        v = np.exp(-2j * np.pi * phase)
        w = np.outer(w_phi, w_th).ravel()
        mats.append(beta * (v * w) @ v.conj().T)
    return np.array(mats)


def random_users(n, seed):
    rng = np.random.default_rng(seed)
    angles = [
        AngularCoordinates(azimuth=float(az), elevation=float(el), mu_phi=0.0, mu_h=0.0)
        for az, el in zip(rng.uniform(-1.0, 1.0, n), rng.uniform(0.05, 1.5, n))
    ]
    return angles, 10.0 ** rng.uniform(-14.0, -10.0, n)


class TestLagDomainMatchesOracle:
    """The lag-domain quadrature equals the element-domain formula to
    1e-13 * beta per entry, and every matrix is exactly Hermitian."""

    @staticmethod
    def check(angles, spread, beta, cfg, q, rule):
        c = correlation_matrices(*directions(angles), spread, beta, cfg, q, rule)
        ref = reference_correlation_matrices(angles, spread, beta, cfg, q, rule)
        assert np.max(np.abs(c - ref) / beta[:, None, None]) <= 1e-13
        assert np.array_equal(c, c.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("q", [1, 5])
    @pytest.mark.parametrize("spread_deg", [(2.0, 3.0), (0.0, 3.0), (2.0, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("rule", ["gauss", "midpoint"])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 5), (4, 4), (8, 8)])
    def test_configs(self, shape, rule, spread_deg, q):
        cfg = ArrayConfig(m_x=shape[0], m_y=shape[1], d_h=0.5, d_v=0.7)
        spread = ScatteringSpread(*np.radians(spread_deg))
        angles, beta = random_users(25, seed=sum(shape) + q)
        self.check(angles, spread, beta, cfg, q, rule)

    @pytest.mark.parametrize("q", [16, 32, 64])
    @pytest.mark.parametrize("spread_deg", [(2.0, 3.0), (20.0, 20.0)])
    @pytest.mark.parametrize("rule", ["gauss", "midpoint"])
    @pytest.mark.parametrize("shape", [(3, 5), (4, 4), (8, 8)])
    def test_fine_quadrature(self, shape, rule, spread_deg, q):
        # both azimuth factors: the moment series wherever its term count is
        # below q (2 deg on 3x5 and 4x4 from q = 16, on 8x8 from q = 32;
        # 20 deg on 3x5 and 4x4 from q = 32, on 8x8 at q = 64 only)
        cfg = ArrayConfig(m_x=shape[0], m_y=shape[1], d_h=0.5, d_v=0.7)
        spread = ScatteringSpread(*np.radians(spread_deg))
        angles, beta = random_users(12, seed=sum(shape) + q)
        self.check(angles, spread, beta, cfg, q, rule)

    def test_many_chunks(self):
        # 700 users at 64 nodes each: ten full chunks and a partial one
        self.check_many_chunks(8)

    def test_many_chunks_series(self):
        # the moment series at q = 32: 38 chunks of 18 users and a partial one
        self.check_many_chunks(32)

    def check_many_chunks(self, q):
        angles, beta = random_users(700, seed=4)
        spread = ScatteringSpread(np.radians(2.0), np.radians(2.0))
        self.check(angles, spread, beta, ArrayConfig(d_h=0.45, d_v=0.6), q, "gauss")


def direct_only(monkeypatch):
    """Make correlation_matrices take the direct azimuth factor at any q."""
    monkeypatch.setattr(channel, "_series_terms", lambda x_max, limit: limit)


class TestAzimuthFactorChoice:
    """The moment series replaces the direct azimuth factor only where its
    term count is below the azimuth node count; elsewhere not a bit moves."""

    def setup_method(self):
        angles, self.beta = random_users(40, seed=9)
        self.directions = directions(angles)
        self.spread = ScatteringSpread(np.radians(2.0), np.radians(2.0))

    def matrices(self, q):
        return correlation_matrices(*self.directions, self.spread, self.beta, ArrayConfig(), q)

    def test_q8_is_the_direct_routine(self, monkeypatch):
        default = self.matrices(8)
        direct_only(monkeypatch)
        assert default.tobytes() == self.matrices(8).tobytes()

    def test_q32_takes_the_series(self, monkeypatch):
        series = self.matrices(32)
        direct_only(monkeypatch)
        direct = self.matrices(32)
        assert not np.array_equal(series, direct)
        assert np.max(np.abs(series - direct) / self.beta[:, None, None]) <= 1e-14

    @pytest.mark.parametrize("shape, spread_deg, terms", [
        ((4, 4), 2.0, 13), ((8, 8), 2.0, 17), ((4, 4), 20.0, 30), ((8, 8), 20.0, 45),
    ])
    def test_term_count(self, shape, spread_deg, terms):
        # smallest N with X^N / N! <= 2^-53, X = (m_x - 1) * 2 pi * d_h * dphi
        x_max = (shape[0] - 1) * 2.0 * np.pi * 0.5 * np.radians(spread_deg)
        assert channel._series_terms(x_max, 100) == terms
        assert x_max ** terms / math.factorial(terms) <= 2.0 ** -53
        assert x_max ** (terms - 1) / math.factorial(terms - 1) > 2.0 ** -53
        assert channel._series_terms(x_max, terms) == terms  # capped: direct


class TestLargeScaleFading:
    def test_free_space_reference(self):
        # 20 km at 2.5 GHz, exact speed of light
        assert path_loss_db(20e3, 2.5e9) == pytest.approx(126.42718330860374, abs=1e-10)

    def test_zero_shadowing_deterministic(self):
        model = FadingModel(sigma_sf_los=0.0, sigma_sf_nlos=0.0, nlos_penalty_db=10.0)
        rng = np.random.default_rng(0)
        f = large_scale_fading(20e3, 2.5e9, model, rng)
        assert f.beta_los == pytest.approx(10 ** (-12.642718330860374))
        assert f.beta_nlos == pytest.approx(f.beta_los / 10.0)

    def test_bad_distance(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0, 2.5e9)
        with pytest.raises(ValueError):
            large_scale_fading(-5.0, 2.5e9, FadingModel(), np.random.default_rng(0))

    def test_shadowing_spread(self):
        model = FadingModel(sigma_sf_los=4.0, sigma_sf_nlos=6.0)
        rng = np.random.default_rng(5)
        draws = [large_scale_fading(20e3, 2.5e9, model, rng).beta_los for _ in range(2000)]
        db = -10 * np.log10(draws) - 126.42718330860374
        assert np.std(db) == pytest.approx(4.0, rel=0.1)


class TestSampleChannel:
    def test_zero_covariance(self):
        mean = np.array([1.0 + 2.0j, -0.5j, 0.25])
        stats = ChannelStats(mean=mean, covariance=np.zeros((3, 3), dtype=complex))
        h = sample_channel(stats, np.random.default_rng(0))
        assert np.array_equal(h, mean)

    def test_rejects_indefinite_covariance(self):
        c = np.diag([1.0, -0.5]).astype(complex)
        stats = ChannelStats(mean=np.zeros(2, dtype=complex), covariance=c)
        with pytest.raises(InvalidCovarianceError):
            sample_channel(stats, np.random.default_rng(0))

    def test_moments_small(self):
        # quick sanity run; the full 1e5-draw check lives in the acceptance suite
        cfg = ArrayConfig(m_x=2, m_y=2)
        ang = angles_at(0.3, 0.6)
        c = correlation_matrix(ang, ScatteringSpread(0.03, 0.03), 1.0, cfg, 8)
        mean = np.full(4, 1.0 + 1.0j)
        stats = ChannelStats(mean=mean, covariance=c)
        rng = np.random.default_rng(11)
        draws = np.array([sample_channel(stats, rng) for _ in range(20000)])
        err = np.abs(draws.mean(axis=0) - mean)
        bound = 3 * np.sqrt(np.real(np.trace(c)) / 20000)
        assert np.all(err <= bound)


class TestBatchedMatchesLoop:
    """Batched calls draw the same stream and give the same bits as a
    per-link loop of scalar calls."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.cfg = ArrayConfig(m_x=3, m_y=2)
        n = 300  # more than one eigh chunk
        self.angles = [
            angles_at(float(a), float(b))
            for a, b in zip(rng.uniform(-0.5, 0.5, n), rng.uniform(0.05, 0.95, n))
        ]
        self.distances = rng.uniform(20e3, 100e3, n)

    def test_fading_and_los(self):
        model = FadingModel()
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        loop = [large_scale_fading(float(d), 2.5e9, model, rng_a) for d in self.distances]
        batch = large_scale_fading(self.distances, 2.5e9, model, rng_b)
        assert np.array_equal(batch.beta_los, [f.beta_los for f in loop])
        assert np.array_equal(batch.beta_nlos, [f.beta_nlos for f in loop])
        stacked = AngularCoordinates(
            azimuth=np.array([a.azimuth for a in self.angles]),
            elevation=np.array([a.elevation for a in self.angles]),
            mu_phi=np.array([a.mu_phi for a in self.angles]),
            mu_h=np.array([a.mu_h for a in self.angles]),
        )
        assert np.array_equal(
            los_channel(batch, stacked, self.cfg),
            [los_channel(f, a, self.cfg) for f, a in zip(loop, self.angles)],
        )

    def test_covariances_and_draws(self):
        self.check_covariances_and_draws(6)

    def test_covariances_and_draws_series(self):
        # q = 32 takes the moment series, 21 users a chunk
        self.check_covariances_and_draws(32)

    def check_covariances_and_draws(self, q):
        spread = ScatteringSpread(np.radians(2.0), np.radians(3.0))
        beta = np.linspace(0.5, 2.0, len(self.angles))
        batch = correlation_matrices(*directions(self.angles), spread, beta, self.cfg, q)
        loop = [correlation_matrix(a, spread, b, self.cfg, q)
                for a, b in zip(self.angles, beta)]
        assert np.array_equal(batch, loop)
        mean = np.full((len(self.angles), self.cfg.m_total), 0.5 - 0.25j)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        drawn = sample_channel(ChannelStats(mean=mean, covariance=batch), rng_a)
        looped = [sample_channel(ChannelStats(mean=m, covariance=c), rng_b)
                  for m, c in zip(mean, batch)]
        assert np.array_equal(drawn, looped)
        assert rng_a.random() == rng_b.random()
