"""Reference forms that only the tests use.

Each restates a quantity the program computes another way: element
positions and wave vectors derive the steering phases from first
principles, correlation_matrix is the single-user covariance, and
orthogonality_defect is one pairwise steering correlation.
"""

import numpy as np

from hapsim.channel import correlation_matrices
from hapsim.dofgrid import steering_correlation
from hapsim.geometry import AngularCoordinates, ArrayConfig


def element_position(m: int, cfg: ArrayConfig) -> np.ndarray:
    """Coordinates of element m (1-based) in meters: [0, i*d_h*lam, j*d_v*lam]."""
    if not 1 <= m <= cfg.m_total:
        raise ValueError(f"element index {m} outside 1..{cfg.m_total}")
    i = (m - 1) % cfg.m_x
    j = (m - 1) // cfg.m_x
    lam = cfg.wavelength
    return np.array([0.0, i * cfg.d_h * lam, j * cfg.d_v * lam])


def wave_vector(azimuth: float, elevation: float, wavelength: float) -> np.ndarray:
    """Propagation vector (2*pi/lam) * [cos(th)cos(ph), cos(th)sin(ph), sin(th)]."""
    k = 2.0 * np.pi / wavelength
    ct = np.cos(elevation)
    return k * np.array([ct * np.cos(azimuth), ct * np.sin(azimuth), np.sin(elevation)])


def array_wave_vector(azimuth: float, elevation: float, wavelength: float) -> np.ndarray:
    """Wave vector producing the array's beam-space phases for a ground direction.

    The per-element phase convention is exp(-j*pi*(i*mu_phi + j*mu_h)) at
    half-wavelength spacing. Feeding the raw ground-view angles into
    wave_vector does not reproduce that; shifting both angles by a quarter
    turn does, uniquely:

        y component -> -(2*pi/lam) * sin(theta)cos(phi) = -(2*pi/lam) * mu_phi
        z component -> -(2*pi/lam) * cos(theta)         = -(2*pi/lam) * mu_h

    (elements have x = 0, so the x component never enters a phase).
    """
    return wave_vector(azimuth - np.pi / 2.0, elevation - np.pi / 2.0, wavelength)


def correlation_matrix(angles, spread, beta_nlos, cfg, quadrature_points=32, rule="gauss"):
    """One-ring covariance of a single user; see correlation_matrices."""
    return correlation_matrices(
        np.array([float(angles.azimuth)]),
        np.array([float(angles.elevation)]),
        spread,
        np.array([float(beta_nlos)]),
        cfg,
        quadrature_points,
        rule,
    )[0]


def orthogonality_defect(
    angles_i: AngularCoordinates, angles_k: AngularCoordinates, cfg: ArrayConfig
) -> float:
    """|v_i^H v_k| of two users' composite steering vectors."""
    return float(
        steering_correlation(
            angles_i.mu_phi - angles_k.mu_phi, angles_i.mu_h - angles_k.mu_h, cfg
        )
    )
