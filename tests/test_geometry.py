import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapsim.geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    drop_users,
    sector_boresight,
    sector_of,
    user_angles,
)

from oracles import element_position, wave_vector

SETTINGS = {"max_examples": 60, "deadline": None}


def cfg_with_wavelength(lam, **kw):
    return ArrayConfig(carrier_freq=SPEED_OF_LIGHT / lam, **kw)


class TestElementPosition:
    def test_first_element_at_origin(self):
        cfg = ArrayConfig()
        assert np.allclose(element_position(1, cfg), [0.0, 0.0, 0.0])

    def test_second_element_horizontal(self):
        cfg = cfg_with_wavelength(0.12, m_x=3, d_h=0.5)
        assert np.allclose(element_position(2, cfg), [0.0, 0.06, 0.0])

    def test_second_row_vertical(self):
        cfg = cfg_with_wavelength(0.12, m_x=3, d_v=0.5)
        assert np.allclose(element_position(4, cfg), [0.0, 0.0, 0.06])

    def test_plane_constraint(self):
        cfg = ArrayConfig(m_x=5, m_y=3)
        for m in range(1, cfg.m_total + 1):
            assert element_position(m, cfg)[0] == 0.0

    def test_injective(self):
        cfg = ArrayConfig(m_x=4, m_y=4)
        seen = {tuple(element_position(m, cfg)) for m in range(1, 17)}
        assert len(seen) == 16

    @pytest.mark.parametrize("m", [0, 17, -3])
    def test_index_out_of_range(self, m):
        with pytest.raises(ValueError):
            element_position(m, ArrayConfig(m_x=4, m_y=4))


class TestWaveVector:
    def test_boresight(self):
        lam = 0.12
        k = wave_vector(0.0, 0.0, lam)
        assert np.allclose(k, (2 * np.pi / lam) * np.array([1.0, 0.0, 0.0]))

    def test_zenith(self):
        lam = 0.12
        k = wave_vector(0.3, np.pi / 2, lam)
        assert np.allclose(k, (2 * np.pi / lam) * np.array([0.0, 0.0, 1.0]))

    def test_side(self):
        lam = 0.2
        k = wave_vector(np.pi / 2, 0.0, lam)
        assert np.allclose(k, (2 * np.pi / lam) * np.array([0.0, 1.0, 0.0]))

    @given(
        az=st.floats(-10, 10, allow_nan=False),
        el=st.floats(-1.5, 1.5, allow_nan=False),
    )
    @settings(**SETTINGS)
    def test_norm(self, az, el):
        lam = 0.12
        assert np.linalg.norm(wave_vector(az, el, lam)) == pytest.approx(2 * np.pi / lam)


class TestUserAngles:
    def test_nadir(self):
        a = user_angles(0.0, 0.0, 20e3, 0.0)
        assert a.elevation == pytest.approx(np.pi / 2)
        assert a.mu_h == 0.0

    def test_coverage_edge(self):
        # closed form 100 / sqrt(100^2 + 20^2)
        a = user_angles(100e3, 0.0, 20e3, 0.0)
        assert a.mu_h == pytest.approx(0.9805806756909202, abs=1e-14)

    def test_mu_phi_at_45_degrees(self):
        # boresight ray, theta = 45 deg: mu_phi = sin(45) * cos(0)
        a = user_angles(20e3, 0.0, 20e3, 0.0)
        assert a.azimuth == pytest.approx(0.0, abs=1e-12)
        assert a.mu_phi == pytest.approx(np.sin(np.pi / 4))

    def test_mu_range_over_disk(self):
        # the attainable mu_h span over the disk is sin(arctan(R/h))
        R, h = 100e3, 20e3
        rng = np.random.default_rng(7)
        mus = user_angles(*drop_users(4000, R, rng), h, 0.0).mu_h
        sin_edge = np.sin(np.arctan(R / h))
        assert 0.0 <= min(mus) and max(mus) <= sin_edge + 1e-12
        # area-uniform drops pile up near the rim, so the top is tight
        assert max(mus) == pytest.approx(sin_edge, rel=2e-3)
        assert min(mus) < 0.2

    @given(
        x=st.floats(-100e3, 100e3),
        y=st.floats(-100e3, 100e3),
        bore=st.floats(0, 2 * np.pi),
    )
    @settings(**SETTINGS)
    def test_mu_definitions(self, x, y, bore):
        a = user_angles(x, y, 20e3, bore)
        assert a.mu_phi == pytest.approx(np.sin(a.elevation) * np.cos(a.azimuth), abs=1e-12)
        assert a.mu_h == pytest.approx(np.cos(a.elevation), abs=1e-12)
        assert abs(a.mu_phi) <= 1.0 + 1e-12
        assert abs(a.mu_h) <= 1.0 + 1e-12


class TestSectorOf:
    def test_examples(self):
        assert sector_of(0.0, 6) == 1
        assert sector_of(np.pi, 6) == 4
        assert sector_of(2 * np.pi - 1e-9, 6) == 6

    @given(az=st.floats(0, 100, allow_nan=False), n=st.integers(1, 12))
    @settings(**SETTINGS)
    def test_partition(self, az, n):
        s = sector_of(az, n)
        assert 1 <= s <= n
        width = 2 * np.pi / n
        lo = (s - 1) * width
        wrapped = az % (2 * np.pi)
        assert lo - 1e-9 <= wrapped < lo + width + 1e-9

    def test_boresight_center(self):
        for n in (1, 3, 6):
            for s in range(1, n + 1):
                b = sector_boresight(s, n)
                assert sector_of(b, n) == s


class TestDropUsers:
    def test_empty(self):
        rng = np.random.default_rng(0)
        x, y = drop_users(0, 100e3, rng)
        assert x.shape == y.shape == (0,)

    def test_degenerate_radius(self):
        rng = np.random.default_rng(0)
        r = np.hypot(*drop_users(5, 0.0, rng))
        assert r.shape == (5,)
        assert np.all(r == 0.0)

    def test_seed_determinism(self):
        a = drop_users(50, 100e3, np.random.default_rng(3))
        b = drop_users(50, 100e3, np.random.default_rng(3))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_inside_disk(self):
        r = np.hypot(*drop_users(500, 100e3, np.random.default_rng(1)))
        assert r.shape == (500,)
        assert np.all(r <= 100e3)
