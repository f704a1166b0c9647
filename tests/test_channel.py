import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapsim.geometry import (
    ArrayConfig,
    AngularCoordinates,
    user_angles,
)
from hapsim import channel
from hapsim.channel import (
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

from oracles import (
    array_wave_vector, correlation_matrix, element_position, reference_correlation_matrices,
)

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
        h = los_channel(fading, composite_steering(0.3, 0.5, cfg))
        assert np.allclose(h, [2.0])

    def test_norm_is_sqrt_beta(self):
        cfg = ArrayConfig(m_x=4, m_y=3)
        fading = LargeScaleFading(beta_los=2.5e-13, beta_nlos=0.0)
        h = los_channel(fading, composite_steering(-0.4, 0.7, cfg))
        assert np.linalg.norm(h) ** 2 == pytest.approx(2.5e-13)

    def test_phases_match_wave_vector_form(self):
        # per-element exp(j k^T u_m) must reproduce the mu-space phases
        cfg = ArrayConfig(m_x=3, m_y=4)
        ang = user_angles(60e3, 35e3, 20e3, 0.35)
        fading = LargeScaleFading(beta_los=1.0, beta_nlos=0.0)
        h = los_channel(fading, composite_steering(ang.mu_phi, ang.mu_h, cfg))
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


def random_users(n, seed):
    rng = np.random.default_rng(seed)
    angles = [
        AngularCoordinates(azimuth=float(az), elevation=float(el), mu_phi=0.0, mu_h=0.0)
        for az, el in zip(rng.uniform(-1.0, 1.0, n), rng.uniform(0.05, 1.5, n))
    ]
    return angles, 10.0 ** rng.uniform(-14.0, -10.0, n)


def midpoint_nodes(n):
    """Midpoint nodes and weights on [-1, 1], a second node family beside the
    library's Gauss-Legendre one."""
    t = (2.0 * np.arange(n) + 1.0) / n - 1.0
    return t, np.full(n, 2.0 / n)


class TestLagDomainMatchesOracle:
    """The lag-domain quadrature equals the element-domain formula to
    1e-13 * beta per entry, and every matrix is exactly Hermitian.

    The identity must hold for any node set, so each case also runs on
    midpoint nodes in place of the Gauss-Legendre ones; this catches a
    lag-domain step that leans on a property of the Gauss rule alone."""

    @staticmethod
    def use_rule(monkeypatch, rule):
        if rule == "midpoint":
            monkeypatch.setattr(channel, "_reference_nodes", midpoint_nodes)

    @staticmethod
    def check(angles, spread, beta, cfg, q):
        c = np.asarray(correlation_matrices(*directions(angles), spread, beta, cfg, q))
        ref = reference_correlation_matrices(angles, spread, beta, cfg, q)
        assert np.max(np.abs(c - ref) / beta[:, None, None]) <= 1e-13
        assert np.array_equal(c, c.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("q", [1, 5])
    @pytest.mark.parametrize("spread_deg", [(2.0, 3.0), (0.0, 3.0), (2.0, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("rule", ["gauss", "midpoint"])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 5), (4, 4), (8, 8)])
    def test_configs(self, shape, rule, spread_deg, q, monkeypatch):
        self.use_rule(monkeypatch, rule)
        cfg = ArrayConfig(m_x=shape[0], m_y=shape[1], d_h=0.5, d_v=0.7)
        spread = ScatteringSpread(*np.radians(spread_deg))
        angles, beta = random_users(25, seed=sum(shape) + q)
        self.check(angles, spread, beta, cfg, q)

    @pytest.mark.parametrize("q", [16, 32, 64])
    @pytest.mark.parametrize("spread_deg", [(2.0, 3.0), (20.0, 20.0)])
    @pytest.mark.parametrize("rule", ["gauss", "midpoint"])
    @pytest.mark.parametrize("shape", [(3, 5), (4, 4), (8, 8)])
    def test_fine_quadrature(self, shape, rule, spread_deg, q, monkeypatch):
        self.use_rule(monkeypatch, rule)
        # node counts around and past converged_nodes' 8 to 11 at 2 deg
        # and 17 to 26 at 20 deg on these arrays
        cfg = ArrayConfig(m_x=shape[0], m_y=shape[1], d_h=0.5, d_v=0.7)
        spread = ScatteringSpread(*np.radians(spread_deg))
        angles, beta = random_users(12, seed=sum(shape) + q)
        self.check(angles, spread, beta, cfg, q)

    def test_many_chunks(self):
        # 700 users at 64 nodes each: ten full chunks and a partial one
        self.check_many_chunks(8)

    def test_many_chunks_series(self):
        # 700 users at 1024 nodes each: 175 chunks of 4 users
        self.check_many_chunks(32)

    def check_many_chunks(self, q):
        angles, beta = random_users(700, seed=4)
        spread = ScatteringSpread(np.radians(2.0), np.radians(2.0))
        self.check(angles, spread, beta, ArrayConfig(d_h=0.45, d_v=0.6), q)


def gauss_remainder(n, a):
    """Gauss-Legendre remainder bound for exp(j*a*t) on [-1, 1], its
    factorial part in exact rationals."""
    ratio = Fraction(2 ** (2 * n + 1) * math.factorial(n) ** 4,
                     (2 * n + 1) * math.factorial(2 * n) ** 3)
    return float(ratio) * a ** (2 * n)


class TestConvergedNodes:
    """converged_nodes picks the node count at which the covariance stops
    moving, and never more than its limit."""

    @pytest.mark.parametrize("shape, spread_deg, nodes", [
        ((4, 4), 2.0, 7), ((4, 8), 2.0, 8), ((8, 8), 2.0, 9), ((4, 4), 20.0, 15),
    ])
    def test_counts(self, shape, spread_deg, nodes):
        cfg = ArrayConfig(m_x=shape[0], m_y=shape[1])
        spread = ScatteringSpread(np.radians(spread_deg), np.radians(spread_deg))
        assert channel.converged_nodes(spread, cfg, 32) == nodes
        assert channel.converged_nodes(spread, cfg, nodes - 1) == nodes - 1
        # the elevation amplitude is the larger one and sets the count
        a = 2.0 * np.pi * ((shape[0] - 1) * 0.5 + (shape[1] - 1) * 0.5) * spread.delta_theta
        assert gauss_remainder(nodes, a) <= 2.0 ** -53 < gauss_remainder(nodes - 1, a)

    def test_zero_spread_takes_one_node(self):
        assert channel.converged_nodes(ScatteringSpread(0.0, 0.0), ArrayConfig(), 32) == 1

    def test_wide_spread_stops_at_the_limit(self):
        # (2n)! for n near 32 overflows a float; the bound is taken in logs
        wide = ScatteringSpread(np.radians(3600.0), np.radians(3600.0))
        assert channel.converged_nodes(wide, ArrayConfig(m_y=8), 32) == 32

    def test_matches_a_fine_oracle(self):
        # random arrays, spacings and spreads (zero on either or both axes
        # included) against the element-domain formula at 96 nodes per axis
        rng = np.random.default_rng(2026)
        zero_axes = [(0,), (1,), (0, 1)]
        worst = 0.0
        for k in range(150):
            cfg = ArrayConfig(m_x=int(rng.integers(1, 9)), m_y=int(rng.integers(1, 9)),
                              d_h=float(rng.uniform(0.25, 1.0)),
                              d_v=float(rng.uniform(0.25, 1.0)))
            spread_deg = rng.uniform(0.0, 20.0, 2)
            if k < len(zero_axes):
                spread_deg[list(zero_axes[k])] = 0.0
            spread = ScatteringSpread(*np.radians(spread_deg))
            angles, beta = random_users(1, seed=k)
            q = channel.converged_nodes(spread, cfg, 96)
            c = np.asarray(correlation_matrices(*directions(angles), spread, beta, cfg, q))
            ref = reference_correlation_matrices(angles, spread, beta, cfg, 96)
            worst = max(worst, np.max(np.abs(c - ref)) / beta[0])
        assert worst <= 1e-13


class TestLargeScaleFading:
    def test_free_space_reference(self):
        # 20 km at 2.5 GHz, exact speed of light
        assert path_loss_db(20e3, 2.5e9) == pytest.approx(126.42718330860374, abs=1e-10)

    def test_zero_shadowing_deterministic(self):
        rng = np.random.default_rng(0)
        f = large_scale_fading(20e3, 2.5e9, (0.0, 0.0), 10.0, rng)
        assert f.beta_los == pytest.approx(10 ** (-12.642718330860374))
        assert f.beta_nlos == pytest.approx(f.beta_los / 10.0)

    def test_bad_distance(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0, 2.5e9)
        with pytest.raises(ValueError):
            large_scale_fading(-5.0, 2.5e9, (4.0, 6.0), 10.0, np.random.default_rng(0))

    def test_shadowing_spread(self):
        rng = np.random.default_rng(5)
        draws = [
            large_scale_fading(20e3, 2.5e9, (4.0, 6.0), 10.0, rng).beta_los for _ in range(2000)
        ]
        db = -10 * np.log10(draws) - 126.42718330860374
        assert np.std(db) == pytest.approx(4.0, rel=0.1)


class TestSampleChannel:
    def test_zero_covariance(self):
        mean = np.array([1.0 + 2.0j, -0.5j, 0.25])
        h = sample_channel(mean, np.zeros((3, 3), dtype=complex), np.random.default_rng(0))
        assert np.array_equal(h, mean)

    def test_rejects_indefinite_covariance(self):
        c = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(InvalidCovarianceError):
            sample_channel(np.zeros(2, dtype=complex), c, np.random.default_rng(0))

    def test_moments_small(self):
        # quick sanity run; the full 1e5-draw check lives in the acceptance suite
        cfg = ArrayConfig(m_x=2, m_y=2)
        ang = angles_at(0.3, 0.6)
        c = correlation_matrix(ang, ScatteringSpread(0.03, 0.03), 1.0, cfg, 8)
        mean = np.full(4, 1.0 + 1.0j)
        rng = np.random.default_rng(11)
        draws = np.array([sample_channel(mean, c, rng) for _ in range(20000)])
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
        model = ((4.0, 6.0), 10.0)
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        loop = [large_scale_fading(float(d), 2.5e9, *model, rng_a) for d in self.distances]
        batch = large_scale_fading(self.distances, 2.5e9, *model, rng_b)
        assert np.array_equal(batch.beta_los, [f.beta_los for f in loop])
        assert np.array_equal(batch.beta_nlos, [f.beta_nlos for f in loop])
        stacked = AngularCoordinates(
            azimuth=np.array([a.azimuth for a in self.angles]),
            elevation=np.array([a.elevation for a in self.angles]),
            mu_phi=np.array([a.mu_phi for a in self.angles]),
            mu_h=np.array([a.mu_h for a in self.angles]),
        )
        assert np.array_equal(
            los_channel(batch, composite_steering(stacked.mu_phi, stacked.mu_h, self.cfg)),
            [los_channel(f, composite_steering(a.mu_phi, a.mu_h, self.cfg))
             for f, a in zip(loop, self.angles)],
        )

    def test_covariances_and_draws(self):
        self.check_covariances_and_draws(6)

    def test_covariances_and_draws_series(self):
        # q = 32: 75 chunks of 4 users
        self.check_covariances_and_draws(32)

    def check_covariances_and_draws(self, q):
        spread = ScatteringSpread(np.radians(2.0), np.radians(3.0))
        beta = np.linspace(0.5, 2.0, len(self.angles))
        batch = correlation_matrices(*directions(self.angles), spread, beta, self.cfg, q)
        loop = [correlation_matrix(a, spread, b, self.cfg, q)
                for a, b in zip(self.angles, beta)]
        assert np.array_equal(np.asarray(batch), loop)
        mean = np.full((len(self.angles), self.cfg.m_total), 0.5 - 0.25j)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        drawn = sample_channel(mean, batch, rng_a)
        looped = [sample_channel(m, c, rng_b) for m, c in zip(mean, batch)]
        assert np.array_equal(drawn, looped)
        assert rng_a.random() == rng_b.random()


class TestLagCovariances:
    """correlation_matrices returns a description that builds lag tables on
    use, indexes like the dense (N, M, M) stack it encodes, and
    sample_channel draws from it as from that stack."""

    # sha256 of the dense stack of covariances(300), as correlation_matrices
    # returned it before it kept lag tables; a platform's BLAS sets these
    # bits, as it sets the goldens'
    DENSE_SHA256 = "f7fd74a98ad85f8b699cb42dfe14f08e6af82cd717422e90118cf5d498971695"

    @staticmethod
    def covariances(n, spread_deg=(2.0, 3.0)):
        angles, beta = random_users(n, seed=n)
        spread = ScatteringSpread(*np.radians(spread_deg))
        return correlation_matrices(*directions(angles), spread, beta, ArrayConfig(m_y=8), 8)

    def test_dense_bytes(self):
        dense = np.asarray(self.covariances(300))
        assert dense.shape == (300, 32, 32) and dense.dtype == complex
        assert hashlib.sha256(dense.tobytes()).hexdigest() == self.DENSE_SHA256

    def test_indexing(self):
        cov = self.covariances(40)
        dense = np.asarray(cov)
        assert cov.shape == dense.shape
        for i in (0, 17, 39, -1):
            assert np.array_equal(cov[i], dense[i])
        for lo, hi in ((0, 16), (16, 40), (33, 100), (5, 5)):
            assert np.array_equal(cov[lo:hi], dense[lo:hi])

    # on this 4x8 array at q = 8 an eigh call takes 4 users and a block of
    # lag tables 32 (36 at zero spread, one node per axis); the counts cross
    # both edges
    @pytest.mark.parametrize("n", [0, 1, 3, 15, 16, 17, 31, 32, 33, 300])
    def test_few_users(self, n):
        cov = self.covariances(n)
        assert cov.block == 32
        self.check_draws(cov, n)

    @pytest.mark.parametrize("n", [1, 35, 36, 37])
    def test_zero_spread(self, n):
        cov = self.covariances(n, spread_deg=(0.0, 0.0))
        assert cov.block == 36
        self.check_draws(cov, n)

    @staticmethod
    def check_draws(cov, n):
        """Drawing from cov equals a per-user loop over its dense matrices,
        bit for bit, and leaves the generator where the loop does."""
        assert cov.shape == np.asarray(cov).shape == (n, 32, 32)
        mean = np.full((n, 32), 0.5 - 0.25j)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        drawn = sample_channel(mean, cov, rng_a)
        looped = [sample_channel(m, c, rng_b) for m, c in zip(mean, np.asarray(cov))]
        assert drawn.shape == (n, 32)
        assert np.array_equal(drawn, np.reshape(looped, (n, 32)))
        assert rng_a.random() == rng_b.random()
