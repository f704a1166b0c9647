import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from conftest import deadline
from hapsim import cli
from hapsim.allocation import QoSSpec
from hapsim.config import ConfigError, ScenarioConfig, load_config, parse_config
from hapsim.geometry import ArrayConfig
from hapsim.harness import place_and_cluster

FLOAT_KEYS = (
    "coverage_radius", "haps_altitude", "carrier_freq", "bandwidth", "bw_rb",
    "d_h", "d_v", "p_max", "p_total", "r_min", "delta_r", "noise_psd",
    "noise_figure", "sigma_sf", "nlos_penalty_db", "spread_phi_deg",
    "spread_theta_deg",
)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_table_lists_every_key():
    # the configuration table's key column names each field once, and no other
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| key | default | meaning |"):].split("\n\n", 1)[0]
    keys = [key for row in table.splitlines()[2:]
            for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in fields(ScenarioConfig)}


class TestDefaults:
    def test_table_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.coverage_radius == 100e3
        assert cfg.haps_altitude == 20e3
        assert cfg.carrier_freq == 2.5e9
        assert cfg.bandwidth == 10e6
        assert cfg.bw_rb == 180e3
        assert cfg.nbr == 50
        assert cfg.r_min == 1.0
        assert cfg.delta_r == 0.05
        assert cfg.noise_psd == -174.0
        assert cfg.noise_figure == 7.0
        assert cfg.sigma_sf == (4.0, 6.0)
        assert cfg.n_sectors == 6
        assert cfg.p_total == cfg.p_max

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ScenarioConfig()

    def test_20mhz_resolves_nbr_100(self):
        cfg = ScenarioConfig(bandwidth=20e6)
        assert cfg.nbr == 100

    def test_other_bandwidth_divides(self):
        cfg = ScenarioConfig(bandwidth=1.8e6)
        assert cfg.nbr == 10

    def test_noise_level(self):
        cfg = ScenarioConfig()
        # -174 dBm/Hz + 7 dB figure, in W/Hz
        assert cfg.noise_w_per_hz() == pytest.approx(10 ** ((-174 + 7 - 30) / 10))

    def test_rho(self):
        cfg = ScenarioConfig(r=2)
        expect = cfg.p_max / (cfg.noise_w_per_hz() * 2 * 180e3)
        assert cfg.rho() == pytest.approx(expect)


class TestValidation:
    def test_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="m_x"):
            ScenarioConfig(m_x=0)
        with pytest.raises(ConfigError, match="bw_rb"):
            ScenarioConfig(bw_rb=-1.0)
        # rules stated by the array, the QoS spec and the subsection grid
        for key, value in [("m_y", 0), ("n_sectors", 0), ("d_v", 0.0),
                           ("carrier_freq", -1.0), ("r_min", -1.0), ("delta_r", 0.0)]:
            with pytest.raises(ConfigError, match=f"^{key} must be "):
                ScenarioConfig(**{key: value})
        with pytest.raises(ConfigError, match="r=51.*nbr=50"):
            ScenarioConfig(bandwidth=10e6, r=51)
        with pytest.raises(ValueError, match="^d_h must be > 0$"):
            ArrayConfig(d_h=0)
        with pytest.raises(ValueError, match="^delta_r must be > 0$"):
            QoSSpec(delta_r=0)

    def test_zero_dof_rejected(self):
        # 4-element rows cannot resolve a 16-sector wedge
        with pytest.raises(ConfigError, match="n_sectors"):
            ScenarioConfig(n_sectors=16)
        with pytest.raises(ConfigError, match="coverage_radius"):
            ScenarioConfig(coverage_radius=1e3)

    def test_bandwidth_below_rb(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(bandwidth=100e3)

    def test_valid_once_it_exists(self):
        # construction derives and validates; no further call is needed,
        # and dataclasses.replace checks the new values too
        cfg = ScenarioConfig(bandwidth=20e6)
        assert cfg.nbr == 100
        assert cfg.p_total == cfg.p_max
        with pytest.raises(ConfigError, match="^r must be >= 1$"):
            replace(ScenarioConfig(), r=0)
        with pytest.raises(ConfigError, match="spread_phi_deg must be in"):
            replace(ScenarioConfig(), spread_phi_deg=181.0)

    def test_zero_block_width(self, tmp_path, capsys):
        # a bandwidth other than 10 or 20 MHz derives nbr by dividing by
        # bw_rb, which must be rejected first, not raise ZeroDivisionError
        error = cli_rejects(b"bandwidth = 1.8e6\nbw_rb = 0\n", tmp_path, capsys)
        assert error == "error: bw_rb must be > 0"
        # a width so small that the block count overflows, or, at 10 MHz
        # where nbr is not derived from it, the block's noise underflows
        for bandwidth in ("1.8e6", "10e6"):
            config = f"bandwidth = {bandwidth}\nbw_rb = 1e-320\n".encode()
            assert "bw_rb 1e-320 Hz" in cli_rejects(config, tmp_path, capsys)


class TestNonFinite:
    """Every float key rejects NaN and infinities with a ConfigError that
    the CLI reports (exit 2), within a wall-clock bound: before the check,
    p_max = nan hung `hapsim run` in the greedy power fill."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_cli_rejects(self, key, value, tmp_path, capsys):
        line = f"sigma_sf = 4, {value}" if key == "sigma_sf" else f"{key} = {value}"
        # the small run's settings, bar the key under test: a key may be set once
        base = {"bandwidth": "1.8e6", "quadrature_points": "4", "trials": "1"}
        base.pop(key, None)
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()) + line + "\n")
        with deadline(10.0):
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_keys_are_every_float_field(self):
        from hapsim.config import _ALL_KEYS, _INT_KEYS

        assert set(FLOAT_KEYS) == _ALL_KEYS - _INT_KEYS

    def test_negative_infinity(self):
        with pytest.raises(ConfigError, match="noise_psd must be finite"):
            parse_config("noise_psd = -inf")


def cli_rejects(config_bytes, tmp_path, capsys):
    """cli.main on a config file: exit 2, one error line, no output."""
    path = tmp_path / "bad.cfg"
    path.write_bytes(config_bytes)
    out = tmp_path / "out"
    with deadline(10.0):
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()
    return lines[0]


@pytest.mark.parametrize("key", ["spread_phi_deg", "spread_theta_deg"])
def test_spread_past_the_sphere_is_rejected(key, tmp_path, capsys):
    # a half-width past 180 deg (90 deg in elevation) wraps the sphere
    line = cli_rejects(f"bandwidth = 1.8e6\n{key} = 3600\n".encode(), tmp_path, capsys)
    assert line == "error: spread_phi_deg must be in [0, 180], spread_theta_deg in [0, 90]"


class TestPowerRange:
    """A power whose rho over- or underflows is a ConfigError: before the
    check, p_max = 1e308 made rho infinite and the greedy fill raised. So
    is a noise level that over- or underflows, which rho divides by."""

    @pytest.mark.parametrize("watts", [0.0, -1.0, 1e308, math.inf])
    def test_rho_must_be_finite_and_positive(self, watts):
        cfg = ScenarioConfig(bandwidth=1.8e6)
        with pytest.raises(ConfigError, match="rho"):
            cfg.rho(watts)

    def test_huge_p_max(self, tmp_path, capsys):
        error = cli_rejects(b"bandwidth = 1.8e6\np_max = 1e308\n", tmp_path, capsys)
        assert "rho inf" in error
        for line in ("noise_psd = 4000", "noise_figure = 4000", "noise_psd = -4000"):
            error = cli_rejects(f"bandwidth = 1.8e6\n{line}\n".encode(), tmp_path, capsys)
            assert error.startswith("error: noise_psd + noise_figure give noise ")


class TestParse:
    def test_key_value_lines(self):
        cfg = parse_config("bandwidth = 20e6\nsigma_sf = 4, 6\n# note\n\nseed=9")
        assert cfg.bandwidth == 20e6
        assert cfg.sigma_sf == (4.0, 6.0)
        assert cfg.seed == 9

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1: unknown key 'bogus'"):
            parse_config("bogus = 3")

    @pytest.mark.parametrize("line", ["quadrature_rule = gauss", "subsection_rule = square"])
    def test_removed_rule_key(self, line, tmp_path, capsys):
        # Gauss-Legendre nodes and the square subsection count are the only
        # rules, so a config that still names either key fails
        error = cli_rejects(f"bandwidth = 1.8e6\n{line}\n".encode(), tmp_path, capsys)
        assert error == f"error: line 2: unknown key {line.split(' = ')[0]!r}"

    def test_repeated_key(self, tmp_path, capsys):
        # a later line does not silently override an earlier one
        error = cli_rejects(b"bandwidth = 1.8e6\nr = 2\n# r = 1\nr = 3\n", tmp_path, capsys)
        assert error == "error: line 4: key 'r' already set on line 2"
        with pytest.raises(ConfigError, match="line 2: key 'seed' already set on line 1"):
            parse_config("seed = 1\nseed = 1")

    def test_syntax_error_carries_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("m_x = 4\nm_y: 3")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("bandwidth = 20e6\nr = 3\n")
        cfg = load_config(path)
        assert cfg.nbr == 100
        assert cfg.r == 3

    def test_not_utf8(self, tmp_path, capsys):
        # a UTF-16 byte order mark is not UTF-8
        error = cli_rejects(b"\xff\xfebandwidth = 1.8e6\n", tmp_path, capsys)
        assert "not UTF-8" in error
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(tmp_path / "bad.cfg")

    def test_load_default(self):
        assert load_config(None) == ScenarioConfig()


def placed(cfg):
    """Served plus unserved users of the config's first trial."""
    served, unserved, _rng = place_and_cluster(cfg, cfg.seed, 0)
    return len(served.user_id) + unserved


class TestDerived:
    def test_full_occupancy_counts_cells(self):
        cfg = ScenarioConfig()  # r=2, L=25, 2 sections, 6 sectors
        grid = cfg.section_grid()
        sub = cfg.subsection_grid()
        assert placed(cfg) == cfg.n_sectors * grid.n_sections * sub.l_count

    def test_occupancy_follows_r(self):
        cfg = ScenarioConfig()
        assert placed(replace(cfg, r=1)) == 6 * 2 * 49
        assert placed(replace(cfg, r=3)) == 6 * 2 * 16

    def test_explicit_user_count_wins(self):
        assert placed(ScenarioConfig(users_per_trial=77)) == 77

    def test_fingerprint_stable_and_sensitive(self):
        a = ScenarioConfig()
        b = ScenarioConfig()
        c = ScenarioConfig(seed=43)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_qos_roundtrip(self):
        cfg = ScenarioConfig(r_min=2.0, delta_r=0.1)
        qos = cfg.qos()
        assert qos.r_min == 2.0
        assert qos.delta_r == 0.1
