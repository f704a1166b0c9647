"""Downlink channel model: LoS steering, one-ring scattering, shadowed path loss.

A user's channel to its serving UPA is Rician-style:

    h = h_los + h_nlos,   h_los deterministic from the user direction,
                          h_nlos ~ CN(0, C) from a one-ring scatterer model.

The second-order NLoS statistics come from integrating the array response
over a small angular box (azimuth spread x elevation spread) around the
user direction. Large-scale gains beta_los / beta_nlos follow free-space
path loss with independent lognormal shadowing and an extra NLoS penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import SPEED_OF_LIGHT, AngularCoordinates, ArrayConfig, element_indices


@dataclass(frozen=True)
class LargeScaleFading:
    """Linear power gains of the LoS and scattered components.

    Scalars for one link, or equal-shape arrays for a batch of links.
    """

    beta_los: float
    beta_nlos: float

    def __post_init__(self):
        if np.any(np.asarray(self.beta_los) < 0) or np.any(np.asarray(self.beta_nlos) < 0):
            raise ValueError("power gains must be nonnegative")


@dataclass(frozen=True)
class FadingModel:
    """Shadowing deviations (dB) and the extra NLoS attenuation (dB)."""

    sigma_sf_los: float = 4.0
    sigma_sf_nlos: float = 6.0
    nlos_penalty_db: float = 10.0


@dataclass(frozen=True)
class ScatteringSpread:
    """Half-widths of the one-ring angular box, radians."""

    delta_phi: float
    delta_theta: float

    def __post_init__(self):
        if self.delta_phi < 0 or self.delta_theta < 0:
            raise ValueError("angular spreads must be >= 0")


@dataclass(frozen=True)
class ChannelStats:
    """First and second moments of one user's channel vector."""

    mean: np.ndarray        # (M,) complex, or (N, M) for N users
    covariance: np.ndarray  # (M, M) complex Hermitian PSD, or (N, M, M)


class InvalidCovarianceError(ValueError):
    pass


def steering(mu, m: int) -> np.ndarray:
    """Unit-norm ULA steering vector, entry p = exp(-j*pi*p*mu)/sqrt(m).

    mu may be an array; entries then run along a new last axis.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    mu = np.asarray(mu, dtype=float)[..., None]
    return np.exp(-1j * np.pi * np.arange(m) * mu) / np.sqrt(m)


def composite_steering(mu_phi, mu_h, cfg: ArrayConfig) -> np.ndarray:
    """Unit-norm UPA steering vector in element-enumeration order.

    Element m-1 = j*m_x + i carries phase -pi*(i*mu_phi + j*mu_h), so the
    elevation factor is the slow (outer) Kronecker factor. Spelled as an
    outer product; np.kron dominates the precoder hot path otherwise.
    Array-valued mu coordinates give one vector per entry, shape (..., M).
    """
    outer = steering(mu_h, cfg.m_y)[..., :, None] * steering(mu_phi, cfg.m_x)[..., None, :]
    return outer.reshape(outer.shape[:-2] + (cfg.m_total,))


def los_channel(
    fading: LargeScaleFading, angles: AngularCoordinates, cfg: ArrayConfig
) -> np.ndarray:
    """Deterministic LoS component sqrt(beta_los) * v(mu_phi, mu_h); norm sqrt(beta_los).

    Array-valued fading gains and mu coordinates give one row per link.
    """
    v = composite_steering(angles.mu_phi, angles.mu_h, cfg)
    return np.sqrt(fading.beta_los)[..., None] * v


@lru_cache(maxsize=16)
def _reference_nodes(n: int, rule: str):
    """Nodes and weights on [-1, 1]; cached, node generation dominates otherwise."""
    if rule == "gauss":
        t, w = np.polynomial.legendre.leggauss(n)
    elif rule == "midpoint":
        t = (2.0 * np.arange(n) + 1.0) / n - 1.0
        w = np.full(n, 2.0 / n)
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _axis_nodes(centers: np.ndarray, half_width: float, n: int, rule: str):
    """Per-center quadrature nodes on [c-hw, c+hw], shape (len(centers), n),
    and their normalized weights (summing to 1)."""
    if half_width == 0.0:
        return centers[:, None], np.array([1.0])
    t, w = _reference_nodes(n, rule)
    return centers[:, None] + half_width * t, w / 2.0


# complex entries of the largest array built per chunk of users (the
# (phi, theta) node grid, a lag factor or the lag table in
# correlation_matrices): 64 KiB buffers, under the C allocator's default
# mmap threshold, so every chunk reuses the previous chunk's heap memory
# (chunks of 2^14-2^16 entries raised the peak RSS of a sweep by 2-5 MB)
_CHUNK_ENTRIES = 1 << 12


def _unit_phasors(phase: np.ndarray) -> np.ndarray:
    """exp(j*phase) from one cos and one sin per entry."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _series_terms(x_max: float, limit: int) -> int:
    """Smallest N with x_max^N / N! <= 2^-53, or `limit` if N would reach it."""
    n, term = 0, 1.0
    while term > 2.0 ** -53 and n < limit:
        n += 1
        term *= x_max / n
    return n


@lru_cache(maxsize=16)
def _series_scale(n_terms: int) -> np.ndarray:
    """(-1)^floor(n/2) / n! for n < n_terms: the real factor of j^n / n!."""
    scale = np.array([(-1.0) ** (n // 2) / math.factorial(n) for n in range(n_terms)])
    scale.setflags(write=False)
    return scale


def _azimuth_direct(az, phis, w_phi, sin_th, d_h):
    """az[u, di, th] = sum_phi w_phi z^di, z = exp(-2j*pi*d_h*sin(th)*cos(phi)),
    from one phasor per (phi, th) node and repeated multiplication."""
    z = _unit_phasors((-2.0 * np.pi * d_h) * sin_th[:, None, :] * np.cos(phis)[:, :, None])
    for di in range(1, az.shape[1]):
        power = z if di == 1 else power * z
        np.matmul(w_phi, power, out=az[:, di])


def _azimuth_series(az, phis, w_phi, sin_th, d_h, centers, n_terms):
    """The same factor from n_terms moments of cos(phi) about cos(phi_u).

    With x = di*kappa, kappa = -2*pi*d_h*sin(th), delta = cos(phi) - cos(phi_u),

        az = exp(j*x*cos(phi_u)) * sum_n (j*x)^n / n! * mu_n,
        mu_n = sum_phi w_phi delta^n,

    summed as two real Horner polynomials in x^2 (even and odd n), times
    one phasor per th node raised to the power di. delta is taken as
    -2 sin((phi + phi_u)/2) sin((phi - phi_u)/2), free of cancellation.
    """
    half_sum = 0.5 * (phis + centers[:, None])
    half_gap = 0.5 * (phis - centers[:, None])
    delta = -2.0 * np.sin(half_sum) * np.sin(half_gap)
    powers = np.empty(delta.shape + (n_terms,))
    powers[..., 0] = 1.0
    powers[..., 1:] = delta[..., None]
    np.multiply.accumulate(powers, axis=2, out=powers)
    # coef[u, k, parity] = (-1)^k * mu_(2k+parity) / (2k+parity)!, zero-padded
    n_pairs = (n_terms + 1) // 2
    coef = np.zeros((len(phis), 2 * n_pairs))
    coef[:, :n_terms] = np.matmul(w_phi, powers) * _series_scale(n_terms)
    coef = coef.reshape(len(phis), n_pairs, 2)[..., None, None]
    kappa = (-2.0 * np.pi * d_h) * sin_th
    x = np.arange(1, az.shape[1])[:, None] * kappa[:, None, :]
    x2 = (x * x)[:, None]
    acc = np.empty((len(phis), 2) + x.shape[1:])
    acc[...] = coef[:, n_pairs - 1]
    for k in range(n_pairs - 2, -1, -1):
        acc *= x2
        acc += coef[:, k]
    series = np.empty(x.shape, dtype=complex)
    series.real = acc[:, 0]
    np.multiply(x, acc[:, 1], out=series.imag)
    phasor = _unit_phasors(kappa * np.cos(centers)[:, None])
    for di in range(1, az.shape[1]):
        power = phasor if di == 1 else power * phasor
        np.multiply(series[:, di - 1], power, out=az[:, di])


def correlation_matrices(
    azimuth: np.ndarray,
    elevation: np.ndarray,
    spread: ScatteringSpread,
    beta_nlos: np.ndarray,
    cfg: ArrayConfig,
    quadrature_points: int = 32,
    rule: str = "gauss",
) -> np.ndarray:
    """Batched one-ring covariance matrices, shape (len(azimuth), M, M),
    one per user direction (azimuth[u], elevation[u]).

    Entry (a, b) of matrix u is

        beta_u / (4*dphi*dth) * integral over [phi_u +- dphi] x [th_u +- dth]
        of exp(j * k(phi, th)^T (pos_a - pos_b)) dphi dth

    with k the array wave vector, evaluated by a tensor-product rule. On a
    UPA the integrand depends only on the lag (di, dj) = (i_a - i_b,
    j_a - j_b), so the rule is applied to the (2*m_x - 1)(2*m_y - 1)
    distinct lags and the block-Toeplitz matrix is gathered from them,
    C[a, b] = beta * L(i_a - i_b, j_a - j_b) with

        L(di, dj) = sum_th w_th y(th)^dj az(di, th),
        az(di, th) = sum_phi w_phi z(phi, th)^di,
        z = exp(-2j*pi*d_h*sin(th)*cos(phi)),  y = exp(-2j*pi*d_v*cos(th)),

    with powers of y built by repeated multiplication. The azimuth factor
    az is evaluated one of two ways, chosen by the inputs alone:

    - direct: one phasor z per (phi, th) node pair, its powers by
      repeated multiplication, summed against the phi weights;
    - moment series: with kappa = -2*pi*d_h*sin(th) and
      delta = cos(phi) - cos(phi_u),
      az = exp(j*di*kappa*cos(phi_u)) * sum_n (j*di*kappa)^n / n! * mu_n,
      where mu_n = sum_phi w_phi delta^n; one phasor per th node instead
      of one per node pair.

    |di*kappa*delta| <= X = (m_x - 1)*2*pi*d_h*dphi, so the first N terms,
    N the smallest with X^N / N! <= 2^-53, leave a tail at the level of
    rounding (N = 13 on a 4x4 array with d_h = 1/2 at dphi = 2 deg, 17 on
    8x8, 30 on 4x4 at 20 deg). The series is taken only where N is below
    the number of azimuth nodes; elsewhere (q <= 13 on the default 4x4
    array at 2 deg) the direct loop runs and its output does not move.
    On 1200 users the two break even at roughly 0.8 N to 1.2 N nodes, and
    at q = 32 on 4x4 at 2 deg the series is about 2.6 times faster. It
    matches the direct form to about 1e-15 * beta.

    Lags with di < 0, or di = 0 and dj < 0, are the conjugates of their
    mirrors, so every matrix is exactly Hermitian; its diagonal equals
    beta and it is PSD, both to rounding. Users are processed in chunks;
    every per-user operation has a fixed shape, so a user's matrix does
    not depend on which other users share its chunk.
    """
    if quadrature_points < 1:
        raise ValueError("quadrature_points must be >= 1")
    azimuth = np.asarray(azimuth, dtype=float)
    elevation = np.asarray(elevation, dtype=float)
    beta_nlos = np.asarray(beta_nlos, dtype=float)
    if elevation.shape != azimuth.shape or beta_nlos.shape != azimuth.shape:
        raise ValueError("need one elevation and one beta_nlos per azimuth")
    if np.any(beta_nlos < 0):
        raise ValueError("beta_nlos must be >= 0")

    m_x, m_y = cfg.m_x, cfg.m_y
    n_dj = 2 * m_y - 1
    i_idx, j_idx = element_indices(cfg)
    # flat position of lag (i_a - i_b, j_a - j_b) in a (2*m_x - 1, n_dj) table
    lag = (i_idx[:, None] - i_idx + m_x - 1) * n_dj + (j_idx[:, None] - j_idx + m_y - 1)
    mats = np.empty((len(azimuth), cfg.m_total, cfg.m_total), dtype=complex)
    n_phi = 1 if spread.delta_phi == 0.0 else quadrature_points
    n_th = 1 if spread.delta_theta == 0.0 else quadrature_points
    # |di*kappa*delta| <= (m_x - 1)*2*pi*d_h*dphi bounds the series' terms
    n_terms = _series_terms((m_x - 1) * 2.0 * np.pi * cfg.d_h * spread.delta_phi, n_phi)
    series = n_terms < n_phi
    # node-pair phasors, or the series' real powers of delta (half a complex entry)
    widest = n_phi * n_terms // 2 if series else n_phi * n_th
    per_user = max(widest, max(m_x, n_dj) * n_th, (2 * m_x - 1) * n_dj)
    step = max(1, _CHUNK_ENTRIES // per_user)
    for lo in range(0, len(azimuth), step):
        hi = lo + step
        phis, w_phi = _axis_nodes(azimuth[lo:hi], spread.delta_phi, quadrature_points, rule)
        thes, w_th = _axis_nodes(elevation[lo:hi], spread.delta_theta, quadrature_points, rule)
        # azimuth lag factor, summed over phi: az[u, di, th] for di = 0..m_x-1
        az = np.empty((len(phis), m_x, n_th), dtype=complex)
        az[:, 0] = w_phi.sum()
        if series:
            _azimuth_series(az, phis, w_phi, np.sin(thes), cfg.d_h, azimuth[lo:hi], n_terms)
        else:
            _azimuth_direct(az, phis, w_phi, np.sin(thes), cfg.d_h)
        # weighted elevation lag factor el[u, th, dj + m_y - 1]
        el = np.empty((len(thes), n_th, n_dj), dtype=complex)
        el[..., m_y - 1] = 1.0
        if m_y > 1:
            el[..., m_y] = _unit_phasors((-2.0 * np.pi * cfg.d_v) * np.cos(thes))
        for dj in range(2, m_y):
            np.multiply(el[..., m_y + dj - 2], el[..., m_y], out=el[..., m_y + dj - 1])
        el[..., : m_y - 1] = el[..., : m_y - 1 : -1].conj()
        el *= w_th[:, None]
        # lag table (u, di + m_x - 1, dj + m_y - 1), scaled by beta
        table = np.empty((len(phis), 2 * m_x - 1, n_dj), dtype=complex)
        np.matmul(az, el, out=table[:, m_x - 1:])
        table[:, m_x - 1, : m_y - 1] = table[:, m_x - 1, : m_y - 1 : -1].conj()
        table[:, : m_x - 1] = table[:, : m_x - 1 : -1, ::-1].conj()
        table *= beta_nlos[lo:hi, None, None]
        np.take(table.reshape(len(table), -1), lag, axis=1, out=mats[lo:hi], mode="clip")
    return mats


def path_loss_db(distance_3d, carrier_freq: float):
    """Free-space path loss 20*log10(4*pi*d*f/c), dB; distances may be an array."""
    if np.any(np.asarray(distance_3d) <= 0) or carrier_freq <= 0:
        raise ValueError("distance and frequency must be positive")
    return 20.0 * np.log10(4.0 * np.pi * distance_3d * carrier_freq / SPEED_OF_LIGHT)


def _exp10(x):
    """10**x entry by entry through the C library pow, as Python float
    arithmetic does; numpy's vectorized power can differ in the last bit."""
    if np.ndim(x) == 0:
        return 10.0 ** float(x)
    return np.array([10.0 ** v for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def large_scale_fading(
    distance_3d,
    carrier_freq: float,
    model: FadingModel,
    rng: np.random.Generator,
) -> LargeScaleFading:
    """Draw shadowed LoS/NLoS gains for one link, or one per entry of an
    array of distances.

    beta_los  = 10^-((PL + X_los) / 10),          X_los  ~ N(0, sigma_los^2) dB
    beta_nlos = 10^-((PL + penalty + X_nlos)/10), X_nlos ~ N(0, sigma_nlos^2) dB

    Each link draws X_los then X_nlos, links in order.
    """
    pl = path_loss_db(distance_3d, carrier_freq)
    x = rng.normal(
        0.0, (model.sigma_sf_los, model.sigma_sf_nlos), size=np.shape(pl) + (2,)
    )
    return LargeScaleFading(
        beta_los=_exp10(-(pl + x[..., 0]) / 10.0),
        beta_nlos=_exp10(-(pl + model.nlos_penalty_db + x[..., 1]) / 10.0),
    )


def sample_channel(stats: ChannelStats, rng: np.random.Generator) -> np.ndarray:
    """Draw h = mean + C^(1/2) z with z circularly-symmetric standard Gaussian.

    Stacked moments, shapes (N, M) and (N, M, M), draw N channels in order,
    each real parts before imaginary parts. Eigenvalues below
    1e-12 * trace are clamped to zero; an eigenvalue below -1e-10 * trace
    means the covariance is not PSD and raises.
    """
    c = np.asarray(stats.covariance)
    mean = np.asarray(stats.mean)
    m = mean.shape[-1]
    if c.shape != mean.shape + (m,):
        raise ValueError("covariance shape does not match mean")
    # stacked covariances per eigh call: _CHUNK_ENTRIES complex entries,
    # for the same memory reason as in correlation_matrices
    step = max(1, _CHUNK_ENTRIES // (m * m))
    if mean.ndim == 2 and len(mean) > step:
        return np.concatenate([
            sample_channel(
                ChannelStats(mean=mean[lo:lo + step], covariance=c[lo:lo + step]),
                rng,
            )
            for lo in range(0, len(mean), step)
        ])
    w, u = np.linalg.eigh(c)
    trace = np.real(np.trace(c, axis1=-2, axis2=-1))
    low = np.min(w, axis=-1)
    bad = low < -1e-10 * np.maximum(trace, 0.0)
    if np.any(bad):
        raise InvalidCovarianceError(
            f"covariance has eigenvalue {np.min(low[bad]):.3e} below -1e-10 * trace"
        )
    w = np.where(w < 1e-12 * trace[..., None], 0.0, w)
    z = rng.standard_normal(mean.shape[:-1] + (2, m))
    z = (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)
    return mean + np.matmul(u, (np.sqrt(w) * z)[..., None])[..., 0]
