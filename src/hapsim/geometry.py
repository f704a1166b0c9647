"""Sector-array geometry for a high-altitude platform base station.

The platform carries a cylindrical arrangement of n_sectors vertical
uniform planar arrays (UPAs), each serving a wedge of a ground disk of
radius coverage_radius from altitude haps_altitude.

Conventions, pinned once and used by every other module:

* Elevation theta is measured from the horizontal plane at the platform,
  so a user at nadir has theta = pi/2 and a user at ground distance r has
  theta = arctan(h / r).
* Azimuth phi is measured relative to the serving sector's boresight.
* Spatial (beam-space) coordinates of a direction:
      mu_phi = sin(theta) * cos(phi),   mu_h = cos(theta).
  Over the disk, mu_h spans [0, sin(arctan(R/h))].
* UPA elements lie in the local y-z plane. Element m (1-based) has
  horizontal index i = (m-1) mod m_x and vertical index j = (m-1) // m_x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class ArrayConfig:
    """Per-sector UPA layout and carrier."""

    m_x: int = 4            # horizontal elements
    m_y: int = 4            # vertical elements
    d_h: float = 0.5        # horizontal spacing, multiples of wavelength
    d_v: float = 0.5        # vertical spacing, multiples of wavelength
    n_sectors: int = 6
    carrier_freq: float = 2.5e9  # Hz

    def __post_init__(self):
        for key in ("m_x", "m_y", "n_sectors"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        for key in ("d_h", "d_v", "carrier_freq"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be > 0")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def m_total(self) -> int:
        return self.m_x * self.m_y

    @property
    def sector_width(self) -> float:
        """Azimuth width delta of one sector wedge, radians."""
        return 2.0 * np.pi / self.n_sectors


@dataclass(frozen=True)
class AngularCoordinates:
    """Boresight-relative direction plus mu coordinates: of one user, or
    equal-shape arrays for many."""

    azimuth: float    # phi, relative to serving sector boresight, radians
    elevation: float  # theta, from the platform's horizontal plane, radians
    mu_phi: float
    mu_h: float


def element_indices(cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays for all M elements in enumeration order."""
    m = np.arange(cfg.m_total)
    return m % cfg.m_x, m // cfg.m_x


def user_angles(x, y, h: float, boresight_azimuth) -> AngularCoordinates:
    """Boresight-relative angles and mu coordinates of users at ground
    coordinates (x, y) (arrays), the platform at altitude h above the
    disk center."""
    r = np.hypot(x, y)
    d = np.hypot(r, h)
    if np.any(d == 0.0):
        raise ValueError("user coincides with the platform")
    elevation = np.arctan2(h, r)  # r=0 (nadir) -> pi/2
    global_az = np.arctan2(y, x) % (2.0 * np.pi)
    phi = (global_az - boresight_azimuth + np.pi) % (2.0 * np.pi) - np.pi
    # sin(theta) = h/d and cos(theta) = r/d, exact for theta = arctan(h/r)
    mu_phi = (h / d) * np.cos(phi)
    mu_h = r / d
    return AngularCoordinates(azimuth=phi, elevation=elevation, mu_phi=mu_phi, mu_h=mu_h)


def sector_of(global_azimuth, n_sectors: int) -> np.ndarray:
    """1-based indices of the sector wedges containing global azimuths."""
    width = 2.0 * np.pi / n_sectors
    az = np.asarray(global_azimuth, dtype=float) % (2.0 * np.pi)
    # az within one ulp of 2*pi can overshoot
    return np.minimum((az // width).astype(np.int64) + 1, n_sectors)


def sector_boresight(sector, n_sectors: int) -> np.ndarray:
    """Boresight azimuths of 1-based sector indices (wedge centers)."""
    sector = np.asarray(sector)
    if np.any((sector < 1) | (sector > n_sectors)):
        raise ValueError(f"sector outside 1..{n_sectors}")
    return (sector - 0.5) * 2.0 * np.pi / n_sectors


def drop_users(
    count: int, coverage_radius: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Ground coordinates (x, y) of i.i.d. uniform users over the coverage
    disk, centered below the platform."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if coverage_radius < 0:
        raise ValueError("coverage_radius must be >= 0")
    radii = coverage_radius * np.sqrt(rng.random(count))
    azimuths = 2.0 * np.pi * rng.random(count)
    return radii * np.cos(azimuths), radii * np.sin(azimuths)
