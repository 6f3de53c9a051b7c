"""Tests for the experiment drivers (every figure/table regenerates)."""

import pytest

from repro.eval.experiments import (
    ALL_EXPERIMENTS,
    FLEET_SMOKE,
    STORM_SMOKE,
    compiled_networks,
    figure7,
    figure8,
    figure9,
    figure10,
    table1,
    table2,
    table3,
)
from repro.eval.reporting import format_table, render_experiment
from repro.eval.workloads import FIG7_CASES


class TestWorkloads:
    def test_nine_cases(self):
        assert len(FIG7_CASES) == 9

    def test_names_match_paper(self):
        assert FIG7_CASES[0].name == "H/W80,C16,K16"
        assert FIG7_CASES[-1].name == "H/W6,C64,K128"

    def test_sizes(self):
        c = FIG7_CASES[0]
        assert c.in_bytes == 80 * 80 * 16
        assert c.macs == 80 * 80 * 16 * 16


#: experiments whose default size belongs to ``benchmarks/``; these
#: tests run them at the size CI's smoke jobs use
SMOKE_SIZES = {"fleet": FLEET_SMOKE, "storm": STORM_SMOKE}


class TestDrivers:
    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_every_experiment_runs_and_renders(self, name):
        headers, rows, notes = ALL_EXPERIMENTS[name](**SMOKE_SIZES.get(name, {}))
        assert headers and rows
        text = render_experiment(name, (headers, rows, notes))
        assert name in text
        for h in headers:
            assert h in text

    def test_table1_has_mcu_row(self):
        _, rows, _ = table1()
        assert any("F411RE" in r[0] for r in rows)

    def test_table2_row_count(self):
        _, rows, _ = table2()
        assert len(rows) == 8 + 17

    def test_figure7_shape(self):
        headers, rows, notes = figure7()
        assert len(rows) == 9
        # TinyEngine OOM exactly on cases 1, 2, 4
        oom = [r[4] == "OOM" for r in rows]
        assert oom == [True, True, False, True, False, False, False, False, False]
        # vMCU deploys everything
        assert all(r[5] == "OK" for r in rows)
        # reductions all negative-signed percentages in the paper band
        reductions = [float(r[3].strip("%-")) for r in rows]
        assert all(10.0 <= red <= 55.0 for red in reductions)
        # equal-activation cases approach 50%
        assert reductions[0] > 45.0

    def test_figure8_vmcu_wins_everywhere(self):
        _, rows, _ = figure8()
        for r in rows:
            assert float(r[2]) < float(r[1])  # energy
            assert float(r[5]) < float(r[4])  # latency

    def test_figure9_ordering(self):
        _, rows, notes = figure9()
        assert len(rows) == 8
        for r in rows:
            te, hm, vm = float(r[1]), float(r[2]), float(r[3])
            assert vm <= te <= hm
        assert any("61.5%" in n for n in notes)  # paper reference included

    def test_figure10_deployability_note(self):
        _, rows, notes = figure10()
        assert len(rows) == 17
        joined = " ".join(notes)
        assert "vmcu=yes" in joined
        assert "tinyengine=no" in joined

    def test_compiled_networks_all_fit_128kb(self):
        """The compiler path reproduces the deployability headline: both
        networks (and the classifier) plan under the 128 KB part."""
        headers, rows, notes = compiled_networks()
        assert [r[0] for r in rows] == ["vww", "vww-classifier", "imagenet"]
        assert all(r[5] == "yes" for r in rows)
        # the ImageNet model lowers to two segments (Table 2 omits blocks)
        assert rows[2][1] == 2
        assert any("hits" in n for n in notes)

    def test_table3_ratio_band(self):
        _, rows, notes = table3()
        ratios = [float(r[4].rstrip("x")) for r in rows]
        # cache_rows mode: vMCU at or below TinyEngine; the recompute
        # ablation brackets the paper's 1.03x from above
        assert all(0.5 <= r <= 1.2 for r in ratios)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_format_table_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [(1, 2)])

    def test_render_includes_notes(self):
        text = render_experiment("x", (["h"], [(1,)], ["note-text"]))
        assert "note: note-text" in text
