"""Scenario configuration: one flat dataclass, a key=value file loader,
and derived quantities shared by the experiment harness.

Each input rule is stated once, by the object that holds the value: the
config checks what only it can state (finiteness, nbr, noise and rho, and
the keys it alone holds), builds the array, QoS spec and grids, which
check their own fields, and reports their errors as its own.

The file format is deliberately tiny: one `key = value` pair per line,
`#` starts a comment, blank lines ignored. Unknown keys are an error so
typos fail loudly instead of silently running the defaults.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .allocation import QoSSpec
from .channel import ScatteringSpread
from .dofgrid import SectionGrid, SubsectionGrid, build_section_grid, subsections_per_section
from .geometry import ArrayConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated deployment.

    Construction, dataclasses.replace included, derives the None-valued
    fields (nbr from the system bandwidth, p_total from p_max), checks what
    only the config can state, and builds the array, QoS spec and grids,
    raising their ValueError as a ConfigError with the same text, so a bad
    config fails before any trial runs. users_per_trial None places one
    user in every grid cell.
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
        return ArrayConfig(**{f.name: getattr(self, f.name) for f in fields(ArrayConfig)})

    def scattering_spread(self) -> ScatteringSpread:
        return ScatteringSpread(
            delta_phi=math.radians(self.spread_phi_deg),
            delta_theta=math.radians(self.spread_theta_deg),
        )

    def qos(self) -> QoSSpec:
        return QoSSpec(r_min=self.r_min, delta_r=self.delta_r)

    def noise_w_per_hz(self) -> float:
        """Noise density N0, W/Hz; inf where the float power overflows."""
        try:
            return 10.0 ** ((self.noise_psd + self.noise_figure - 30.0) / 10.0)
        except OverflowError:
            return math.inf

    def rho(self, p_max: float | None = None) -> float:
        """Per-block transmit SNR scale: p_max / (N0 * r * bw_rb).

        ConfigError unless it is finite and > 0: a power that under- or
        overflows it leaves the allocator no finite step costs.
        """
        p = self.p_max if p_max is None else p_max
        rho = p / (self.noise_w_per_hz() * self.r * self.bw_rb)
        if not 0.0 < rho < math.inf:
            raise ConfigError(f"p_max {p!r} W gives rho {rho!r}; it must be finite and > 0")
        return rho

    def section_grid(self) -> SectionGrid:
        return build_section_grid(self.array_config(), self.coverage_radius, self.haps_altitude)

    def subsection_grid(self) -> SubsectionGrid:
        return subsections_per_section(self.nbr, self.r, self.array_config())

    # -- derivation and validation ------------------------------------------

    def __post_init__(self) -> None:
        # before anything is derived from them: NaN passes every range
        # check below, and inf bandwidth breaks the nbr derivation
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for key in ("coverage_radius", "haps_altitude", "bandwidth", "bw_rb", "p_max"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0")
        if self.nbr is None:  # bw_rb > 0 by now
            blocks = {10e6: 50, 20e6: 100}.get(self.bandwidth) or self.bandwidth // self.bw_rb
            if blocks == math.inf:
                raise ConfigError(f"bw_rb {self.bw_rb!r} Hz divides bandwidth into inf blocks")
            object.__setattr__(self, "nbr", int(blocks))
        if self.p_total is None:
            object.__setattr__(self, "p_total", self.p_max)
        for key in ("r", "nbr", "trials", "quadrature_points"):
            if int(getattr(self, key)) < 1:
                raise ConfigError(f"{key} must be >= 1")
        # each quantity rho divides by: its own error names the keys
        noise = self.noise_w_per_hz()
        if not 0.0 < noise < math.inf:
            raise ConfigError(f"noise_psd + noise_figure give noise {noise!r} W/Hz; "
                              "it must be finite and > 0")
        if not 0.0 < noise * self.r * self.bw_rb < math.inf:
            raise ConfigError(f"bw_rb {self.bw_rb!r} Hz gives block noise "
                              f"{noise * self.r * self.bw_rb!r} W; it must be finite and > 0")
        self.rho()
        if self.p_total <= 0:
            raise ConfigError("p_total must be > 0")
        if self.users_per_trial is not None and self.users_per_trial < 0:
            raise ConfigError("users_per_trial must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if len(self.sigma_sf) != 2 or any(s < 0 for s in self.sigma_sf):
            raise ConfigError("sigma_sf must be two values >= 0")
        if not (0 <= self.spread_phi_deg <= 180 and 0 <= self.spread_theta_deg <= 90):
            raise ConfigError("spread_phi_deg must be in [0, 180], spread_theta_deg in [0, 90]")
        if self.nbr * self.bw_rb > self.bandwidth + self.bw_rb:
            raise ConfigError("nbr does not fit in bandwidth at bw_rb")
        # the array, QoS spec and grids state their own rules
        try:
            self.qos()
            self.section_grid()
            self.subsection_grid()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

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


# each key's type, read from its annotation (a string under postponed evaluation)
_INT_KEYS = {f.name for f in fields(ScenarioConfig) if f.type in ("int", "int | None")}
_TUPLE_KEYS = {f.name for f in fields(ScenarioConfig) if f.type.startswith("tuple[")}
_ALL_KEYS = {f.name for f in fields(ScenarioConfig)}


def parse_config(text: str) -> ScenarioConfig:
    """Parse key=value lines into a ScenarioConfig."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}  # key -> line it was set on
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
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
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
        return ScenarioConfig(**values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path | None = None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config(text)
