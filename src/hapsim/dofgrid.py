"""Orthogonality-based partition of each sector's beam space.

Steering vectors at half-wavelength spacing are orthogonal when their mu
coordinates differ by a nonzero multiple of 2/m (mod 2), so a sector's mu
interval supports floor(m * width / 2) mutually orthogonal "sections" per
axis. Each section is further split into an s x s grid of subsections; users
in the same subsection index across sections are near-orthogonal and may
share resource blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import AngularCoordinates, ArrayConfig

# floor() guard against IEEE sin() landing one ulp below an exact value,
# e.g. sin(pi/6) = 0.49999999999999994
_FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class SectionGrid:
    """Per-sector grid of orthogonal sections in (mu_phi, mu_h) space."""

    n_phi: int
    n_theta: int
    mu_phi_range: tuple[float, float]
    mu_h_range: tuple[float, float]
    section_width_phi: float  # 2 / m_x
    section_width_h: float    # 2 / m_y
    margin_phi: float
    margin_h: float

    @property
    def n_sections(self) -> int:
        return self.n_phi * self.n_theta

    @property
    def origin(self) -> tuple[float, float]:
        """Lower corner of section (1, 1): range edge plus margin."""
        return (
            self.mu_phi_range[0] + self.margin_phi,
            self.mu_h_range[0] + self.margin_h,
        )


@dataclass(frozen=True)
class SubsectionGrid:
    """Square split of one section into per_axis^2 subsections."""

    l_count: int
    per_axis: int
    delta_phi: float  # 2 / (m_x * per_axis)
    delta_h: float    # 2 / (m_y * per_axis)


class GridCell(NamedTuple):
    """1-based (sector, section, subsection) address of one user."""

    sector: int
    section: int
    subsection: int


def dof_azimuth(m_x: int, n_sectors: int) -> int:
    """Orthogonal azimuth directions per sector: floor(m_x * sin(pi/n_sectors))."""
    if m_x < 1 or n_sectors < 1:
        raise ValueError("m_x and n_sectors must be >= 1")
    return int(np.floor(m_x * np.sin(np.pi / n_sectors) + _FLOOR_EPS))


def dof_elevation(m_y: int, coverage_radius: float, altitude: float) -> int:
    """Orthogonal elevation directions: floor(m_y * sin(arctan(R/h)) / 2)."""
    if m_y < 1:
        raise ValueError("m_y must be >= 1")
    if coverage_radius < 0 or altitude <= 0:
        raise ValueError("need coverage_radius >= 0 and altitude > 0")
    width = coverage_radius / np.hypot(coverage_radius, altitude)
    return int(np.floor(m_y * width / 2.0 + _FLOOR_EPS))


def subsections_per_section(nbr: int, r: int, cfg: ArrayConfig) -> SubsectionGrid:
    """Number of subsections L for nbr resource blocks at r blocks per user.

    s = round(sqrt(nbr / r)), L = s^2, keeping the subsection grid square;
    L * r may then slightly exceed nbr, handled by modulo block reuse.
    """
    if nbr < 1:
        raise ValueError("nbr must be >= 1")
    if not 1 <= r <= nbr:
        raise ValueError(f"r={r} outside 1..nbr={nbr}")
    s = int(np.floor(np.sqrt(nbr / r) + 0.5))  # round half up
    return SubsectionGrid(
        l_count=s * s,
        per_axis=s,
        delta_phi=2.0 / (cfg.m_x * s),
        delta_h=2.0 / (cfg.m_y * s),
    )


def build_section_grid(
    cfg: ArrayConfig, coverage_radius: float, altitude: float
) -> SectionGrid:
    """Section grid of one sector.

    Azimuth interval: width 2*sin(delta/2) anchored at the smallest attainable
    mu_phi over the wedge, sin(theta_min) * cos(delta/2) with theta_min the
    coverage-edge elevation. Elevation interval: [0, sin(arctan(R/h))], which
    is exactly the attainable mu_h span. Sections of width 2/m are centered
    in each interval, leftover split evenly as outer margins.
    """
    n_phi = dof_azimuth(cfg.m_x, cfg.n_sectors)
    n_theta = dof_elevation(cfg.m_y, coverage_radius, altitude)
    if n_phi < 1:
        raise ValueError(f"m_x={cfg.m_x} with n_sectors={cfg.n_sectors} gives zero "
                         "azimuth resolution bins")
    if n_theta < 1:
        raise ValueError(f"m_y={cfg.m_y} with coverage_radius={coverage_radius} and "
                         f"haps_altitude={altitude} gives zero elevation resolution bins")
    half = cfg.sector_width / 2.0
    d_edge = float(np.hypot(coverage_radius, altitude))
    sin_theta_min = altitude / d_edge
    width_phi = 2.0 * np.sin(half)
    lo_phi = sin_theta_min * np.cos(half)
    width_h = coverage_radius / d_edge
    sec_w_phi = 2.0 / cfg.m_x
    sec_w_h = 2.0 / cfg.m_y
    return SectionGrid(
        n_phi=n_phi,
        n_theta=n_theta,
        mu_phi_range=(float(lo_phi), float(lo_phi + width_phi)),
        mu_h_range=(0.0, float(width_h)),
        section_width_phi=sec_w_phi,
        section_width_h=sec_w_h,
        margin_phi=max(0.0, (width_phi - n_phi * sec_w_phi) / 2.0),
        margin_h=max(0.0, (width_h - n_theta * sec_w_h) / 2.0),
    )


def _axis_indices(x, lo: float, hi: float, margin: float, n: int, width: float, s: int):
    """(section, subsection, inside) along one axis; indices 0-based.

    Lower-inclusive cell boundaries; margin values clamp into the edge cells
    so the map is total on [lo, hi]. Outside the interval (beyond a relative
    tolerance) is out of coverage: inside is False there and the clamped
    indices mean nothing.
    """
    x = np.asarray(x, dtype=float)
    tol = 1e-9 * (hi - lo)
    inside = (x >= lo - tol) & (x <= hi + tol)
    grid_lo = lo + margin
    sec = np.clip(np.floor((x - grid_lo) / width), 0, n - 1)
    sub = np.clip(np.floor((x - grid_lo - sec * width) / (width / s)), 0, s - 1)
    return sec.astype(np.int64), sub.astype(np.int64), inside


def locate(
    angles: AngularCoordinates,
    section_grid: SectionGrid,
    subsection_grid: SubsectionGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of users at the mu coordinates of angles (arrays).

    Returns 1-based section and subsection indices, each flattened
    row-major as (azimuth index, elevation index), and the mask of users
    inside the sector's grid; the indices of the others mean nothing.
    """
    g = section_grid
    s = subsection_grid.per_axis
    a_sec, a_sub, a_in = _axis_indices(
        angles.mu_phi, g.mu_phi_range[0], g.mu_phi_range[1], g.margin_phi,
        g.n_phi, g.section_width_phi, s,
    )
    e_sec, e_sub, e_in = _axis_indices(
        angles.mu_h, g.mu_h_range[0], g.mu_h_range[1], g.margin_h,
        g.n_theta, g.section_width_h, s,
    )
    return a_sec * g.n_theta + e_sec + 1, a_sub * s + e_sub + 1, a_in & e_in


def cell_center(
    section_grid: SectionGrid, subsection_grid: SubsectionGrid, section, subsection
) -> tuple[np.ndarray, np.ndarray]:
    """(mu_phi, mu_h) centers of 1-based (section, subsection) cells (arrays)."""
    g = section_grid
    s = subsection_grid.per_axis
    section = np.asarray(section)
    subsection = np.asarray(subsection)
    if np.any((section < 1) | (section > g.n_sections)):
        raise ValueError(f"section outside 1..{g.n_sections}")
    if np.any((subsection < 1) | (subsection > subsection_grid.l_count)):
        raise ValueError(f"subsection outside 1..{subsection_grid.l_count}")
    a_sec, e_sec = np.divmod(section - 1, g.n_theta)
    a_sub, e_sub = np.divmod(subsection - 1, s)
    lo_phi, lo_h = g.origin
    return (
        lo_phi + a_sec * g.section_width_phi + (a_sub + 0.5) * (g.section_width_phi / s),
        lo_h + e_sec * g.section_width_h + (e_sub + 0.5) * (g.section_width_h / s),
    )


def steering_correlation(d_mu_phi, d_mu_h, cfg: ArrayConfig) -> np.ndarray:
    """|v_i^H v_k| for beam-coordinate offsets, broadcasting over arrays.

    Separable mean phase sums: the product over axes of
    |sum_n exp(j*pi*n*dmu)| / m; 0 exactly at nonzero section offsets,
    1 at identical coordinates.
    """
    d_mu_phi = np.asarray(d_mu_phi, dtype=float)
    d_mu_h = np.asarray(d_mu_h, dtype=float)
    az = np.abs(
        np.exp(1j * np.pi * np.multiply.outer(d_mu_phi, np.arange(cfg.m_x))).sum(-1)
    ) / cfg.m_x
    el = np.abs(
        np.exp(1j * np.pi * np.multiply.outer(d_mu_h, np.arange(cfg.m_y))).sum(-1)
    ) / cfg.m_y
    return az * el

