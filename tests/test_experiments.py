"""Tests for the experiment registry and its fast members.

The training-heavy experiments (figs. 16-18, tables 6-7) are exercised by
the benchmark harness; here we test the registry plumbing, the rendering,
and the model-only experiments end to end at tiny sizes.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, get_experiment, render_table
from repro.experiments import fig15, table1, table2, table3, table4, table5
from repro.experiments.common import scaled


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "ablation-rlf",
            "ablation-wallace",
            "ablation-mc",
            "taxonomy",
        }
        assert set(EXPERIMENTS) == expected

    def test_every_module_has_run_and_render(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.render)

    def test_get_experiment(self):
        assert get_experiment("table1") is table1
        with pytest.raises(ConfigurationError):
            get_experiment("table99")


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table("Title", ["a", "bb"], [[1, 2.5], ["x", 0.001]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "====="
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_note_appended(self):
        text = render_table("T", ["a"], [[1]], note="hello")
        assert text.rstrip().endswith("hello")

    def test_float_formatting(self):
        text = render_table("T", ["a"], [[1234567.0]])
        assert "1,234,567" in text


class TestScaled:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert scaled(10, 100) == 10

    def test_full_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert scaled(10, 100) == 100


class TestModelExperiments:
    """The no-training experiments run quickly enough to test directly."""

    def test_table1_tiny(self):
        result = table1.run(samples=2000, trials=1)
        assert set(result["rows"]) == set(table1.PAPER_ROWS)
        text = table1.render(result)
        assert "RLF-GRNG" in text

    def test_fig15_tiny(self):
        result = fig15.run(trials=3, samples=2000)
        assert set(result["rates"]) == set(fig15.GENERATORS)
        assert all(0.0 <= r <= 1.0 for r in result["rates"].values())
        fig15.render(result)

    def test_table2(self):
        result = table2.run()
        assert result["reports"]["rlf"].alms == 831
        assert "Table 2" in table2.render(result)

    def test_table3_all_claims_hold(self):
        result = table3.run()
        assert all(result["claims"].values())
        table3.render(result)

    def test_table4(self):
        result = table4.run()
        assert result["reports"]["rlf"].fits_device()
        assert "Table 4" in table4.render(result)

    def test_table5_quick(self):
        result = table5.run(measure_seconds=0.1)
        rows = result["rows"]
        rlf = next(v for k, v in rows.items() if k.startswith("RLF"))
        cpu = next(v for k, v in rows.items() if k.startswith("Intel"))
        assert rlf[0] > cpu[0]  # FPGA model beats measured CPU throughput
        assert "Table 5" in table5.render(result)

    def test_table5_renders_the_local_reparameterization_row(self):
        result = table5.run(measure_seconds=0.05)
        ips, ipj = result["rows"][table5.LOCAL_REPARAM_ROW]
        assert ips > 0 and ipj > 0
        rendered = table5.render(result)
        row = next(line for line in rendered.splitlines() if table5.LOCAL_REPARAM_ROW in line)
        # Forward-pass equivalents: no paper columns, like the weight-sampling MC row.
        assert row.split()[-2:] == ["-", "-"]
        assert "local-reparameterization row" in rendered
