"""Downlink channel model: LoS steering, one-ring scattering, shadowed path loss.

A user's channel to its serving UPA is Rician-style:

    h = h_los + h_nlos,   h_los deterministic from the user direction,
                          h_nlos ~ CN(0, C) from a one-ring scatterer model.

The second-order NLoS statistics come from integrating the array response
over a small angular box (azimuth spread x elevation spread) around the
user direction. correlation_matrices returns the covariances as a
description; the channel draw builds their lag tables one block of users
at a time and expands each block to M x M one eigh chunk at a time, so no
trial holds all its tables, and a draw that is reused builds none.
Large-scale gains beta_los / beta_nlos follow free-space path loss with
independent lognormal shadowing and an extra NLoS penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayConfig, element_indices


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
class ScatteringSpread:
    """Half-widths of the one-ring angular box, radians."""

    delta_phi: float
    delta_theta: float

    def __post_init__(self):
        if self.delta_phi < 0 or self.delta_theta < 0:
            raise ValueError("angular spreads must be >= 0")


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


def los_channel(fading: LargeScaleFading, steering_rows: np.ndarray) -> np.ndarray:
    """Deterministic LoS component sqrt(beta_los) * v; norm sqrt(beta_los).

    v is the link's composite_steering vector; array-valued fading gains
    with one row of steering_rows each give one row per link.
    """
    return np.sqrt(fading.beta_los)[..., None] * steering_rows


@lru_cache(maxsize=16)
def _reference_nodes(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]; cached, leggauss dominates otherwise."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _axis_rule(half_width: float, n: int):
    """Offsets of an axis's quadrature nodes from their center, shape (n,),
    or None where a zero half-width leaves the center as the one node, and
    the nodes' normalized weights (summing to 1)."""
    if half_width == 0.0:
        return None, np.array([1.0])
    t, w = _reference_nodes(n)
    return half_width * t, w / 2.0


def _axis_nodes(centers: np.ndarray, offsets: np.ndarray | None) -> np.ndarray:
    """Per-center quadrature nodes of an _axis_rule, shape (len(centers), n)."""
    return centers[:, None] if offsets is None else centers[:, None] + offsets


# complex entries of the largest array built per chunk of users (the node
# grid or a lag factor of one block of lag tables, the covariances gathered
# for one eigh call in sample_channel): 64 KiB buffers, under the C
# allocator's mmap threshold, so each chunk reuses the last one's heap
# memory (chunks of 2^14-2^16 entries raised a sweep's peak RSS by 2-5 MB)
_CHUNK_ENTRIES = 1 << 12


def _eigh_users(m: int) -> int:
    """Users of one eigh chunk of M x M covariances."""
    return max(1, _CHUNK_ENTRIES // (m * m))


def _unit_phasors(phase: np.ndarray) -> np.ndarray:
    """exp(j*phase) from one cos and one sin per entry."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


@dataclass(frozen=True, eq=False)
class LagCovariances:
    """One-ring covariances kept as what defines them (see
    correlation_matrices), with no matrix or lag table built up front.
    Indexes like the (N, M, M) stack it encodes: cov[i] and cov[lo:hi]
    build those users' matrices, and np.asarray(cov) builds them all;
    sample_channel builds the lag tables one block of users at a time."""

    azimuth: np.ndarray  # (N,)
    elevation: np.ndarray  # (N,)
    beta_nlos: np.ndarray  # (N,)
    spread: ScatteringSpread
    cfg: ArrayConfig
    quadrature_points: int
    # set once per description, not per block
    lag: np.ndarray = field(init=False, repr=False)  # (M, M): flat table position of entry (a, b)
    # users per block of lag tables: as many as keep the block's largest
    # array within _CHUNK_ENTRIES, rounded down to whole eigh chunks where
    # the block holds more than one, so only the last eigh call of a draw
    # takes a partial chunk
    block: int = field(init=False)
    _phi_rule: tuple = field(init=False, repr=False)  # _axis_rule of each axis
    _theta_rule: tuple = field(init=False, repr=False)

    def __post_init__(self):
        m_x, m_y = self.cfg.m_x, self.cfg.m_y
        n_dj = 2 * m_y - 1
        i_idx, j_idx = element_indices(self.cfg)
        phi_rule = _axis_rule(self.spread.delta_phi, self.quadrature_points)
        theta_rule = _axis_rule(self.spread.delta_theta, self.quadrature_points)
        n_phi, n_th = len(phi_rule[1]), len(theta_rule[1])
        per_user = max(max(n_phi, m_x, n_dj) * n_th, (2 * m_x - 1) * n_dj)
        block, chunk = max(1, _CHUNK_ENTRIES // per_user), _eigh_users(self.cfg.m_total)
        for name, value in (
            # flat position of lag (i_a - i_b, j_a - j_b) in a (2*m_x - 1, n_dj) table
            ("lag", (i_idx[:, None] - i_idx + m_x - 1) * n_dj + (j_idx[:, None] - j_idx + m_y - 1)),
            ("block", block - block % chunk if block > chunk else block),
            ("_phi_rule", phi_rule),
            ("_theta_rule", theta_rule),
        ):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.azimuth),) + self.lag.shape

    def __getitem__(self, key) -> np.ndarray:
        users = np.arange(len(self.azimuth))[key]
        dense = np.take(self._tables(np.ravel(users)), self.lag, axis=-1)
        return dense.reshape(np.shape(users) + self.lag.shape)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)

    def _chunks(self):
        """The matrices in user order, one eigh chunk per yielded stack,
        built from one block of lag tables at a time."""
        step = _eigh_users(self.cfg.m_total)
        for lo in range(0, len(self.azimuth), self.block):
            tables = self._tables(slice(lo, lo + self.block))
            for i in range(0, len(tables), step):
                yield np.take(tables[i:i + step], self.lag, axis=-1)
            del tables  # freed before the next block is built

    def _tables(self, users) -> np.ndarray:
        """Lag tables (di + m_x - 1, dj + m_y - 1), flattened and scaled by
        beta, of the users an index selects: (n, (2*m_x - 1)(2*m_y - 1))."""
        cfg = self.cfg
        m_x, m_y = cfg.m_x, cfg.m_y
        n_dj = 2 * m_y - 1
        (phi_offsets, w_phi), (theta_offsets, w_th) = self._phi_rule, self._theta_rule
        phis = _axis_nodes(self.azimuth[users], phi_offsets)
        thes = _axis_nodes(self.elevation[users], theta_offsets)
        n_th = len(w_th)
        # azimuth lag factor, summed over phi: az[u, di, th] for di = 0..m_x-1
        z = _unit_phasors(
            (-2.0 * np.pi * cfg.d_h) * np.sin(thes)[:, None, :] * np.cos(phis)[:, :, None]
        )
        az = np.empty((len(phis), m_x, n_th), dtype=complex)
        az[:, 0] = w_phi.sum()
        for di in range(1, m_x):
            power = z if di == 1 else power * z
            np.matmul(w_phi, power, out=az[:, di])
        # weighted elevation lag factor el[u, th, dj + m_y - 1]
        el = np.empty((len(thes), n_th, n_dj), dtype=complex)
        el[..., m_y - 1] = 1.0
        if m_y > 1:
            el[..., m_y] = _unit_phasors((-2.0 * np.pi * cfg.d_v) * np.cos(thes))
        for dj in range(2, m_y):
            np.multiply(el[..., m_y + dj - 2], el[..., m_y], out=el[..., m_y + dj - 1])
        el[..., : m_y - 1] = el[..., : m_y - 1 : -1].conj()
        el *= w_th[:, None]
        tables = np.empty((len(phis), (2 * m_x - 1) * n_dj), dtype=complex)
        table = tables.reshape(-1, 2 * m_x - 1, n_dj)
        np.matmul(az, el, out=table[:, m_x - 1:])
        table[:, m_x - 1, : m_y - 1] = table[:, m_x - 1, : m_y - 1 : -1].conj()
        table[:, : m_x - 1] = table[:, : m_x - 1 : -1, ::-1].conj()
        table *= self.beta_nlos[users, None, None]
        return tables


def converged_nodes(spread: ScatteringSpread, cfg: ArrayConfig, limit: int) -> int:
    """Gauss-Legendre nodes per axis at which the covariance has converged
    to rounding, at most `limit`.

    Per axis this is the smallest n whose remainder for exp(j*a*t) on
    [-1, 1], 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) * a^(2n), is at most
    2^-53 (Davis & Rabinowitz, Methods of Numerical Integration). The
    phase amplitudes are a_phi = (m_x - 1)*2*pi*d_h*dphi in azimuth and
    a_th = 2*pi*((m_x - 1)*d_h + (m_y - 1)*d_v)*dth in elevation. The
    remainder grows with a, so the larger amplitude sets the count of
    both axes; it is evaluated in logs, since (2n)! overflows a float.
    """
    a = 2.0 * math.pi * max(
        (cfg.m_x - 1) * cfg.d_h * spread.delta_phi,
        ((cfg.m_x - 1) * cfg.d_h + (cfg.m_y - 1) * cfg.d_v) * spread.delta_theta,
    )
    if a == 0.0:  # no phase varies over the box: zero spreads or one element
        return 1
    n = 1
    while n < limit:
        log_remainder = (
            (2 * n + 1) * math.log(2.0) + 4.0 * math.lgamma(n + 1)
            - math.log(2 * n + 1) - 3.0 * math.lgamma(2 * n + 1) + 2 * n * math.log(a)
        )
        if log_remainder <= -53.0 * math.log(2.0):
            break
        n += 1
    return n


def correlation_matrices(
    azimuth: np.ndarray,
    elevation: np.ndarray,
    spread: ScatteringSpread,
    beta_nlos: np.ndarray,
    cfg: ArrayConfig,
    quadrature_points: int = 32,
) -> LagCovariances:
    """Batched one-ring covariance matrices, shape (len(azimuth), M, M),
    one per user direction (azimuth[u], elevation[u]), validated here and
    returned as a LagCovariances description that builds them on use.

    Entry (a, b) of matrix u is

        beta_u / (4*dphi*dth) * integral over [phi_u +- dphi] x [th_u +- dth]
        of exp(j * k(phi, th)^T (pos_a - pos_b)) dphi dth

    with k the array wave vector, evaluated by a Gauss-Legendre product rule
    of quadrature_points nodes per axis. On a UPA the integrand depends only
    on the lag (di, dj) = (i_a - i_b, j_a - j_b), so the rule is applied to
    the (2*m_x - 1)(2*m_y - 1) distinct lags of each user's lag table, and
    the table gathers into the block-Toeplitz matrix C[a, b] = beta * L(i_a - i_b, j_a - j_b),

        L(di, dj) = sum_th w_th y(th)^dj az(di, th),
        az(di, th) = sum_phi w_phi z(phi, th)^di,
        z = exp(-2j*pi*d_h*sin(th)*cos(phi)),  y = exp(-2j*pi*d_v*cos(th)),

    with powers of z and y built by repeated multiplication, one phasor z
    per (phi, th) node pair. The node count needed for rounding-level
    accuracy is given by converged_nodes; this function takes the count
    it is handed.

    Lags with di < 0, or di = 0 and dj < 0, are the conjugates of their
    mirrors, so every matrix is exactly Hermitian; its diagonal equals
    beta and it is PSD, both to rounding. Tables are built for blocks of
    users; every per-user operation has a fixed shape, so a user's matrix
    does not depend on which other users share its block.
    """
    if quadrature_points < 1:
        raise ValueError("quadrature_points must be >= 1")
    azimuth, elevation, beta_nlos = (
        np.asarray(x, dtype=float) for x in (azimuth, elevation, beta_nlos))
    if elevation.shape != azimuth.shape or beta_nlos.shape != azimuth.shape:
        raise ValueError("need one elevation and one beta_nlos per azimuth")
    if np.any(beta_nlos < 0):
        raise ValueError("beta_nlos must be >= 0")
    return LagCovariances(azimuth, elevation, beta_nlos, spread, cfg, quadrature_points)


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
    sigma_sf: tuple[float, float],
    nlos_penalty_db: float,
    rng: np.random.Generator,
) -> LargeScaleFading:
    """Draw shadowed LoS/NLoS gains for one link, or one per entry of an
    array of distances.

    beta_los  = 10^-((PL + X_los) / 10),          X_los  ~ N(0, sigma_los^2) dB
    beta_nlos = 10^-((PL + penalty + X_nlos)/10), X_nlos ~ N(0, sigma_nlos^2) dB

    with sigma_sf = (sigma_los, sigma_nlos) and penalty = nlos_penalty_db.

    Each link draws X_los then X_nlos, links in order.
    """
    pl = path_loss_db(distance_3d, carrier_freq)
    x = rng.normal(0.0, sigma_sf, size=np.shape(pl) + (2,))
    return LargeScaleFading(
        beta_los=_exp10(-(pl + x[..., 0]) / 10.0),
        beta_nlos=_exp10(-(pl + nlos_penalty_db + x[..., 1]) / 10.0),
    )


def sample_channel(
    mean: np.ndarray, covariance: np.ndarray | LagCovariances, rng: np.random.Generator
) -> np.ndarray:
    """Draw h = mean + C^(1/2) z with z circularly-symmetric standard Gaussian.

    One user's moments, shapes (M,) and (M, M), draw one channel; stacked
    moments, shapes (N, M) and (N, M, M) (an array or LagCovariances),
    draw N channels in order, each real parts before imaginary parts.
    Eigenvalues below 1e-12 * trace are clamped to zero; an eigenvalue
    below -1e-10 * trace means the covariance is not PSD and raises.
    """
    mean = np.asarray(mean)
    m = mean.shape[-1]
    if covariance.shape != mean.shape + (m,):
        raise ValueError("covariance shape does not match mean")
    # one user is a stack of one; each eigh call takes at most _CHUNK_ENTRIES
    # complex entries, sliced (built, for LagCovariances) just before it runs
    means, covs = mean.reshape(-1, m), (covariance[None] if mean.ndim == 1 else covariance)
    out = np.empty(means.shape, dtype=complex)
    step = _eigh_users(m)
    chunks = (covs._chunks() if isinstance(covs, LagCovariances)
              else (covs[i:i + step] for i in range(0, len(covs), step)))
    lo = 0
    for c in chunks:
        hi = lo + len(c)
        out[lo:hi] = _draw_chunk(means[lo:hi], c, rng)
        lo = hi
    return out.reshape(mean.shape)


def _draw_chunk(mean: np.ndarray, c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """sample_channel's draw for one stack of moments, (n, M) and (n, M, M);
    its eigenvectors are freed before the next chunk is built."""
    w, u = np.linalg.eigh(c)
    trace = np.real(np.trace(c, axis1=-2, axis2=-1))
    low = np.min(w, axis=-1)
    bad = low < -1e-10 * np.maximum(trace, 0.0)
    if np.any(bad):
        raise InvalidCovarianceError(
            f"covariance has eigenvalue {np.min(low[bad]):.3e} below -1e-10 * trace"
        )
    w = np.where(w < 1e-12 * trace[:, None], 0.0, w)
    z = rng.standard_normal((len(w), 2, mean.shape[-1]))
    z = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    return mean + np.matmul(u, (np.sqrt(w) * z)[..., None])[..., 0]
