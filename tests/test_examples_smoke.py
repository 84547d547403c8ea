"""Smoke tests: the fast examples must run end to end.

The training-heavy examples (quickstart, small-data diagnosis) run in
CI's examples smoke step; here we run the two fast ones so a broken
public API surfaces in the unit suite.
"""

import pathlib
import runpy


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_examples_exist(self):
        expected = {
            "quickstart.py",
            "grng_quality.py",
            "small_data_diagnosis.py",
            "design_space_exploration.py",
            "accelerator_pipeline.py",
        }
        present = {p.name for p in EXAMPLES.glob("*.py")}
        assert expected <= present

    def test_accelerator_pipeline_example(self, capsys):
        out = _run_example("accelerator_pipeline.py", capsys)
        assert "bit-exact match: True" in out

    def test_design_space_example(self, capsys):
        out = _run_example("design_space_exploration.py", capsys)
        assert "<= paper" in out
        assert "img/J" in out
