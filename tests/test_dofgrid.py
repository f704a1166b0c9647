import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapsim.geometry import ArrayConfig, AngularCoordinates
from hapsim.dofgrid import (
    build_section_grid,
    cell_center,
    dof_azimuth,
    dof_elevation,
    locate,
    subsections_per_section,
)

from oracles import orthogonality_defect

SETTINGS = {"max_examples": 60, "deadline": None}


def mu_only(mu_phi, mu_h):
    return AngularCoordinates(azimuth=0.0, elevation=0.0, mu_phi=mu_phi, mu_h=mu_h)


def packing_count(m, width):
    """Independent oracle: how many disjoint width-2/m sections fit in width.

    Greedy left-to-right packing; a section must lie fully inside the
    interval. Same 1e-9 slack as the floor guard in the formulas.
    """
    section = 2.0 / m
    count = 0
    x = 0.0
    while x + section <= width + 1e-9:
        count += 1
        x += section
    return count


class TestDofFormulas:
    def test_azimuth_examples(self):
        assert dof_azimuth(3, 6) == 1
        assert dof_azimuth(16, 4) == 11
        assert dof_azimuth(8, 6) == 4

    def test_elevation_examples(self):
        assert dof_elevation(4, 100e3, 20e3) == 1
        assert dof_elevation(16, 100e3, 20e3) == 7
        assert dof_elevation(4, 0.0, 20e3) == 0

    @given(m=st.integers(1, 32), n_s=st.integers(1, 12))
    @settings(**SETTINGS)
    def test_azimuth_matches_packing(self, m, n_s):
        width = 2 * np.sin(np.pi / n_s)
        assert dof_azimuth(m, n_s) == packing_count(m, width)

    @given(m=st.integers(1, 32), ratio=st.floats(0.01, 20.0))
    @settings(**SETTINGS)
    def test_elevation_matches_packing(self, m, ratio):
        h = 20e3
        width = np.sin(np.arctan(ratio))
        assert dof_elevation(m, ratio * h, h) == packing_count(m, width)


class TestSubsections:
    def test_l_table_10mhz(self):
        cfg = ArrayConfig()
        assert subsections_per_section(50, 1, cfg).l_count == 49
        assert subsections_per_section(50, 2, cfg).l_count == 25
        assert subsections_per_section(50, 3, cfg).l_count == 16

    def test_l_table_20mhz(self):
        cfg = ArrayConfig()
        expected = {1: 100, 2: 49, 3: 36, 4: 25, 6: 16}
        for r, l in expected.items():
            assert subsections_per_section(100, r, cfg).l_count == l

    def test_delta_widths(self):
        cfg = ArrayConfig(m_x=4, m_y=2)
        g = subsections_per_section(50, 2, cfg)
        assert g.per_axis == 5
        assert g.delta_phi == pytest.approx(2 / (4 * 5))
        assert g.delta_h == pytest.approx(2 / (2 * 5))

    def test_bad_r(self):
        with pytest.raises(ValueError):
            subsections_per_section(50, 0, ArrayConfig())
        with pytest.raises(ValueError):
            subsections_per_section(50, 51, ArrayConfig())


class TestLocate:
    def setup_method(self):
        self.cfg = ArrayConfig()  # 4x4, 6 sectors
        self.grid = build_section_grid(self.cfg, 100e3, 20e3)
        self.sub = subsections_per_section(50, 2, self.cfg)  # s = 5

    def corner(self):
        return self.grid.origin

    def cell(self, mu_phi, mu_h):
        """(section, subsection, inside) of one point, as Python values."""
        section, subsection, inside = locate(mu_only(mu_phi, mu_h), self.grid, self.sub)
        return int(section), int(subsection), bool(inside)

    def test_lower_corner(self):
        x, y = self.corner()
        assert self.cell(x + 1e-12, y + 1e-12) == (1, 1, True)

    def test_section_center(self):
        x, y = self.corner()
        section, subsection, _ = self.cell(
            x + self.grid.section_width_phi / 2, y + self.grid.section_width_h / 2
        )
        assert section == 1
        assert subsection == 13  # middle of the 5x5 grid

    def test_upper_edge(self):
        x, y = self.corner()
        section, subsection, _ = self.cell(
            x + self.grid.n_phi * self.grid.section_width_phi - 1e-9,
            y + self.grid.n_theta * self.grid.section_width_h - 1e-9,
        )
        assert section == self.grid.n_sections
        assert subsection == self.sub.l_count

    def test_margin_clamps(self):
        # values inside the range but in a margin clamp into the edge cells
        lo_h = self.grid.mu_h_range[0]
        section, _, inside = self.cell(self.corner()[0], lo_h)
        assert section == 1
        assert inside

    def test_out_of_coverage(self):
        _, _, inside = self.cell(self.grid.mu_phi_range[0] - 0.01, 0.3)
        assert not inside
        _, _, inside = self.cell(0.5, self.grid.mu_h_range[1] + 0.01)
        assert not inside

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_roundtrip_with_cell_center(self, data):
        sec = data.draw(st.integers(1, self.grid.n_sections))
        sub = data.draw(st.integers(1, self.sub.l_count))
        mu = cell_center(self.grid, self.sub, sec, sub)
        assert self.cell(*mu) == (sec, sub, True)

    @given(
        mu_phi=st.floats(0.0, 1.0),
        mu_h=st.floats(0.0, 0.98),
    )
    @settings(**SETTINGS)
    def test_total_on_range(self, mu_phi, mu_h):
        lo, hi = self.grid.mu_phi_range
        x = lo + mu_phi * (hi - lo)
        section, subsection, inside = self.cell(x, mu_h)
        assert inside
        assert 1 <= section <= self.grid.n_sections
        assert 1 <= subsection <= self.sub.l_count

    def test_cell_center_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            cell_center(self.grid, self.sub, [1, self.grid.n_sections + 1], [1, 1])
        with pytest.raises(ValueError):
            cell_center(self.grid, self.sub, [1, 1], [0, 1])


class TestOrthogonalityDefect:
    def test_identical(self):
        cfg = ArrayConfig()
        a = mu_only(0.3, 0.5)
        assert orthogonality_defect(a, a, cfg) == pytest.approx(1.0)

    def test_section_offset_is_zero(self):
        cfg = ArrayConfig(m_x=4, m_y=4)
        a = mu_only(0.2, 0.5)
        b = mu_only(0.2 + 2 / 4, 0.62)
        assert orthogonality_defect(a, b, cfg) < 1e-10

    def test_dirichlet_value(self):
        # |(1/4) sum_{n<4} exp(j pi n / 4)|, direct 4-term complex sum
        cfg = ArrayConfig(m_x=4, m_y=1)
        a = mu_only(0.25, 0.4)
        b = mu_only(0.0, 0.4)
        assert orthogonality_defect(a, b, cfg) == pytest.approx(
            0.6532814824381883, abs=1e-12
        )

    @given(
        p1=st.floats(-1, 1), h1=st.floats(-1, 1),
        p2=st.floats(-1, 1), h2=st.floats(-1, 1),
    )
    @settings(**SETTINGS)
    def test_symmetric_and_bounded(self, p1, h1, p2, h2):
        cfg = ArrayConfig(m_x=3, m_y=5)
        a, b = mu_only(p1, h1), mu_only(p2, h2)
        d_ab = orthogonality_defect(a, b, cfg)
        d_ba = orthogonality_defect(b, a, cfg)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert -1e-12 <= d_ab <= 1.0 + 1e-12

    def test_matches_composite_steering_inner_product(self):
        from hapsim.channel import composite_steering

        cfg = ArrayConfig(m_x=4, m_y=3)
        a, b = mu_only(0.17, 0.52), mu_only(-0.08, 0.33)
        v1 = composite_steering(a.mu_phi, a.mu_h, cfg)
        v2 = composite_steering(b.mu_phi, b.mu_h, cfg)
        assert orthogonality_defect(a, b, cfg) == pytest.approx(
            abs(np.vdot(v1, v2)), abs=1e-12
        )
