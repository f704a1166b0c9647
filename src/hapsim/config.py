"""Scenario configuration: one flat dataclass, a key=value file loader,
and derived quantities shared by the experiment harness.

The file format is deliberately tiny: one `key = value` pair per line,
`#` starts a comment, blank lines ignored. Unknown keys are an error so
typos fail loudly instead of silently running the defaults.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .allocation import QoSSpec
from .channel import FadingModel, ScatteringSpread
from .dofgrid import (
    SectionGrid,
    SubsectionGrid,
    build_section_grid,
    dof_azimuth,
    dof_elevation,
    subsections_per_section,
)
from .geometry import ArrayConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated deployment.

    None-valued fields are derived at resolve() time: nbr from the system
    bandwidth, p_total from p_max, users_per_trial from full grid occupancy.
    """

    coverage_radius: float = 100e3
    haps_altitude: float = 20e3
    carrier_freq: float = 2.5e9
    bandwidth: float = 10e6
    bw_rb: float = 180e3
    nbr: int | None = None
    r: int = 2
    m_x: int = 4
    m_y: int = 4
    d_h: float = 0.5
    d_v: float = 0.5
    n_sectors: int = 6
    p_max: float = 10.0         # W, power scale inside rho
    p_total: float | None = None  # W, caps p_max * sum(omega) over all sectors
    r_min: float = 1.0
    delta_r: float = 0.05
    noise_psd: float = -174.0   # dBm/Hz
    noise_figure: float = 7.0   # dB
    sigma_sf: tuple[float, float] = (4.0, 6.0)
    nlos_penalty_db: float = 10.0
    spread_phi_deg: float = 2.0
    spread_theta_deg: float = 2.0
    quadrature_points: int = 32
    users_per_trial: int | None = None
    trials: int = 10
    seed: int = 42

    # -- derived objects ----------------------------------------------------

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(
            m_x=self.m_x,
            m_y=self.m_y,
            d_h=self.d_h,
            d_v=self.d_v,
            n_sectors=self.n_sectors,
            carrier_freq=self.carrier_freq,
        )

    def fading_model(self) -> FadingModel:
        return FadingModel(
            sigma_sf_los=self.sigma_sf[0],
            sigma_sf_nlos=self.sigma_sf[1],
            nlos_penalty_db=self.nlos_penalty_db,
        )

    def scattering_spread(self) -> ScatteringSpread:
        return ScatteringSpread(
            delta_phi=math.radians(self.spread_phi_deg),
            delta_theta=math.radians(self.spread_theta_deg),
        )

    def qos(self) -> QoSSpec:
        return QoSSpec(r_min=self.r_min, delta_r=self.delta_r)

    def noise_w_per_hz(self) -> float:
        return 10.0 ** ((self.noise_psd + self.noise_figure - 30.0) / 10.0)

    def rho(self, p_max: float | None = None) -> float:
        """Per-block transmit SNR scale: p_max / (N0 * r * bw_rb).

        ConfigError unless it is finite and > 0: a power that under- or
        overflows it leaves the allocator no finite step costs.
        """
        p = self.p_max if p_max is None else p_max
        if self.nbr is None:
            raise ConfigError("rho requires a resolved config (nbr is None)")
        rho = p / (self.noise_w_per_hz() * self.r * self.bw_rb)
        if not 0.0 < rho < math.inf:
            raise ConfigError(f"p_max {p!r} W gives rho {rho!r}; it must be finite and > 0")
        return rho

    def dof(self) -> tuple[int, int]:
        return (
            dof_azimuth(self.m_x, self.n_sectors),
            dof_elevation(self.m_y, self.coverage_radius, self.haps_altitude),
        )

    def section_grid(self) -> SectionGrid:
        return build_section_grid(
            self.array_config(), self.coverage_radius, self.haps_altitude
        )

    def subsection_grid(self) -> SubsectionGrid:
        if self.nbr is None:
            raise ConfigError("subsection_grid requires a resolved config")
        return subsections_per_section(self.nbr, self.r, self.array_config())

    def full_occupancy(self) -> int:
        grid = self.section_grid()
        return self.n_sectors * grid.n_sections * self.subsection_grid().l_count

    def effective_users(self) -> int:
        """users_per_trial, defaulting to one user per grid cell.

        Kept lazy (instead of frozen at resolve time) so sweeps that vary r,
        and with it the subsection count, re-derive occupancy per point.
        """
        if self.users_per_trial is not None:
            return self.users_per_trial
        return self.full_occupancy()

    # -- resolution and validation ------------------------------------------

    def resolve(self) -> "ScenarioConfig":
        """Fill derived fields and validate; harness entry points need this."""
        # before anything is derived from them: NaN passes every range
        # check below, and inf bandwidth breaks the nbr derivation
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        nbr = self.nbr
        if nbr is None:
            if self.bandwidth == 10e6:
                nbr = 50
            elif self.bandwidth == 20e6:
                nbr = 100
            else:
                nbr = int(self.bandwidth // self.bw_rb)
        p_total = self.p_max if self.p_total is None else self.p_total
        cfg = replace(self, nbr=nbr, p_total=p_total)
        cfg._validate()
        if cfg.users_per_trial is not None and cfg.users_per_trial < 0:
            raise ConfigError("users_per_trial must be >= 0")
        return cfg

    def _validate(self) -> None:
        positive = (
            "coverage_radius", "haps_altitude", "carrier_freq", "bandwidth",
            "bw_rb", "p_max", "d_h", "d_v",
        )
        for key in positive:
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0")
        for key in ("m_x", "m_y", "n_sectors", "r", "nbr", "trials",
                    "quadrature_points"):
            if int(getattr(self, key)) < 1:
                raise ConfigError(f"{key} must be >= 1")
        self.rho()
        if self.p_total is not None and self.p_total <= 0:
            raise ConfigError("p_total must be > 0")
        if self.r_min < 0:
            raise ConfigError("r_min must be >= 0")
        if self.delta_r <= 0:
            raise ConfigError("delta_r must be > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if len(self.sigma_sf) != 2 or any(s < 0 for s in self.sigma_sf):
            raise ConfigError("sigma_sf must be two values >= 0")
        if not (0 <= self.spread_phi_deg <= 180 and 0 <= self.spread_theta_deg <= 90):
            raise ConfigError("spread_phi_deg must be in [0, 180], spread_theta_deg in [0, 90]")
        if self.nbr is not None and self.nbr * self.bw_rb > self.bandwidth + self.bw_rb:
            raise ConfigError("nbr does not fit in bandwidth at bw_rb")
        if self.r > (self.nbr or self.r):
            raise ConfigError("r cannot exceed nbr")
        n_phi, n_theta = self.dof()
        if n_phi < 1:
            raise ConfigError(
                f"m_x={self.m_x} with n_sectors={self.n_sectors} gives zero "
                "azimuth resolution bins"
            )
        if n_theta < 1:
            raise ConfigError(
                f"m_y={self.m_y} with coverage_radius={self.coverage_radius} "
                f"and haps_altitude={self.haps_altitude} gives zero elevation "
                "resolution bins"
            )

    # -- serialization --------------------------------------------------------

    def canonical_items(self) -> list[tuple[str, str]]:
        out = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                text = ",".join(str(x) for x in v)
            else:
                text = str(v)
            out.append((f.name, text))
        return out

    def fingerprint(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in self.canonical_items())
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_INT_KEYS = {"nbr", "r", "m_x", "m_y", "n_sectors", "quadrature_points",
             "users_per_trial", "trials", "seed"}
_TUPLE_KEYS = {"sigma_sf"}
_ALL_KEYS = {f.name for f in fields(ScenarioConfig)}


def parse_config(text: str) -> ScenarioConfig:
    """Parse key=value lines into a resolved ScenarioConfig."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _TUPLE_KEYS:
                values[key] = tuple(float(x) for x in val.split(","))
            elif key in _INT_KEYS:
                values[key] = int(val)
            else:
                values[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    try:
        cfg = ScenarioConfig(**values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.resolve()


def load_config(path: str | Path | None = None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig().resolve()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config(text)
