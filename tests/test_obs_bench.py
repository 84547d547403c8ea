"""Bench-result recorder schema."""

import json
import os
import platform
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import BenchRecorder
from repro.obs.bench import SCHEMA_VERSION, machine_fingerprint


class TestRecorder:
    def test_document_shape_and_write(self, tmp_path):
        recorder = BenchRecorder("bench_x", mode="quick", config={"n": 4})
        recorder.record("speedup", 7.5, unit="x")
        recorder.record("error", 0.25, unit="frac", direction="lower")
        path = recorder.write(tmp_path / "results")
        assert path.name == "bench_x.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["bench"] == "bench_x"
        assert doc["mode"] == "quick"
        assert doc["config"] == {"n": 4}
        assert set(doc["machine"]) == {"platform", "python", "numpy", "cpus"}
        assert doc["metrics"] == {
            "speedup": {"value": 7.5, "unit": "x", "direction": "higher"},
            "error": {"value": 0.25, "unit": "frac", "direction": "lower"},
        }

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BenchRecorder("")
        recorder = BenchRecorder("b")
        with pytest.raises(ConfigurationError):
            recorder.record("m", 1.0, direction="sideways")

    def test_defaults(self):
        recorder = BenchRecorder("b")
        recorder.record("m", 2)
        doc = recorder.to_dict()
        assert doc["mode"] == "full"
        assert doc["config"] == {}
        assert doc["metrics"]["m"] == {"value": 2.0, "unit": "", "direction": "higher"}

    @pytest.mark.parametrize("direction", ["", "Higher", "up", None])
    def test_rejected_direction_records_nothing(self, direction):
        recorder = BenchRecorder("b")
        with pytest.raises(ConfigurationError, match="direction"):
            recorder.record("m", 1.0, direction=direction)
        assert recorder.metrics == {}

    def test_rerecording_a_name_replaces_it(self):
        recorder = BenchRecorder("b")
        recorder.record("latency", 3.0, unit="ms", direction="lower")
        recorder.record("latency", 2.5, unit="s")
        assert recorder.metrics == {
            "latency": {"value": 2.5, "unit": "s", "direction": "higher"}
        }

    def test_numpy_values_are_stored_as_python_floats(self, tmp_path):
        recorder = BenchRecorder("b")
        recorder.record("f32", np.float32(0.5))
        recorder.record("i64", np.int64(3))
        recorder.record("flag", True)
        values = {name: m["value"] for name, m in recorder.metrics.items()}
        assert values == {"f32": 0.5, "i64": 3.0, "flag": 1.0}
        assert all(type(v) is float for v in values.values())
        doc = json.loads(recorder.write(tmp_path).read_text())
        assert doc["metrics"]["i64"]["value"] == 3.0

    def test_config_is_a_snapshot(self):
        config = {"n": 4}
        recorder = BenchRecorder("b", config=config)
        config["n"] = 8
        assert recorder.to_dict()["config"] == {"n": 4}

    def test_metrics_keep_recording_order(self, tmp_path):
        recorder = BenchRecorder("b")
        for name in ("zeta", "alpha", "mid"):
            recorder.record(name, 1.0)
        doc = json.loads(recorder.write(tmp_path).read_text())
        assert list(doc["metrics"]) == ["zeta", "alpha", "mid"]

    def test_write_replaces_the_previous_document(self, tmp_path):
        first = BenchRecorder("b", mode="quick")
        first.record("old", 1.0)
        first.write(tmp_path / "a" / "b")
        second = BenchRecorder("b")
        second.record("new", 2.0)
        path = second.write(tmp_path / "a" / "b")
        assert sorted(p.name for p in path.parent.iterdir()) == ["b.json"]
        doc = json.loads(path.read_text())
        assert doc["mode"] == "full"
        assert list(doc["metrics"]) == ["new"]

    def test_timestamp_is_local_iso_8601(self):
        stamp = BenchRecorder("b").to_dict()["timestamp"]
        time.strptime(stamp[:19], "%Y-%m-%dT%H:%M:%S")
        assert stamp[19] in "+-" and stamp[20:].isdigit()


class TestMachineFingerprint:
    def test_identifies_this_interpreter(self):
        machine = machine_fingerprint()
        assert machine == {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count() or 0,
        }
        assert json.loads(json.dumps(machine)) == machine
