"""Fixture-corpus tests for every reprolint rule.

Each test builds a tiny synthetic project tree (``src/repro/...`` +
``tests/...``) in a temp directory and runs the engine API over it — the
same path ``python -m repro.cli lint`` takes — so both the positive case
(the bad snippet is caught) and the negative case (the idiomatic snippet
is clean) are pinned for each rule, plus the engine features: inline
suppressions, baseline filtering, stale-baseline reporting, and the
``_locked``-helper exemption for RL005.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import Baseline, lint_project
from repro.analysis.engine import load_project
from repro.cli import main as cli_main
from repro.errors import AnalysisError


def make_tree(tmp_path, files):
    """Write ``{relpath: source}`` into a throwaway project root."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def findings_of(report, rule):
    return [finding for finding in report.new if finding.rule == rule]


# ----------------------------------------------------------------------
# RL001 — seed discipline
# ----------------------------------------------------------------------
class TestSeedDiscipline:
    def test_raw_default_rng_is_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/foo.py": """\
                import numpy as np

                def sample():
                    return np.random.default_rng(0).random(4)
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL001"]), "RL001")
        assert len(found) == 1
        assert found[0].path == "src/repro/bnn/foo.py"
        assert found[0].line == 4
        assert found[0].token == "numpy.random.default_rng"
        assert found[0].scope == "sample"

    @pytest.mark.parametrize(
        "call",
        [
            "np.random.seed(1)",
            "np.random.normal(0.0, 1.0)",
            "np.random.RandomState(3)",
            "random.random()",
            "random.randint(0, 7)",
            "time.time()",
            "time.time_ns()",
        ],
    )
    def test_banned_entropy_sources(self, tmp_path, call):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/foo.py": f"""\
                import random
                import time

                import numpy as np

                def entropy():
                    return {call}
                """
            },
        )
        assert len(findings_of(lint_project(root, only=["RL001"]), "RL001")) == 1

    def test_from_import_alias_is_resolved(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/hw/foo.py": """\
                from random import choice

                def pick(items):
                    return choice(items)
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL001"]), "RL001")
        assert [finding.token for finding in found] == ["random.choice"]

    def test_seam_calls_are_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/foo.py": """\
                import time

                from repro.utils.seeding import generator_from_seed, spawn_generator

                def sample(seed):
                    rng = spawn_generator(seed, "foo")
                    raw = generator_from_seed(seed)
                    started = time.perf_counter()  # measuring, not seeding
                    return rng.random(4) + raw.random(4), started
                """
            },
        )
        assert lint_project(root, only=["RL001"]).clean

    def test_seeding_seam_module_is_exempt(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/utils/seeding.py": """\
                import numpy as np

                def spawn(seed):
                    return np.random.default_rng(seed)
                """
            },
        )
        assert lint_project(root, only=["RL001"]).clean

    def test_mentions_in_docstrings_are_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/foo.py": '''\
                def sample():
                    """Fallback np.random.default_rng(0) is documented here.

                    # and random.random() in a comment-looking line too
                    """
                    return 1
                '''
            },
        )
        assert lint_project(root, only=["RL001"]).clean


# ----------------------------------------------------------------------
# RL002 — kernel-pair contract
# ----------------------------------------------------------------------
class TestKernelPairs:
    SRC = """\
    def fast_kernel(x):
        return x

    def fast_kernel_loop(x):
        return x
    """

    def test_untested_pair_is_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/kern.py": self.SRC,
                "tests/test_kern.py": """\
                from repro.bnn.kern import fast_kernel

                def test_fast_kernel():
                    assert fast_kernel(1) == 1
                """,
            },
        )
        found = findings_of(lint_project(root, only=["RL002"]), "RL002")
        assert len(found) == 1
        assert found[0].token == "fast_kernel/fast_kernel_loop"

    def test_equivalence_test_satisfies_the_pair(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/kern.py": self.SRC,
                "tests/test_kern.py": """\
                from repro.bnn.kern import fast_kernel, fast_kernel_loop

                def test_bit_exact():
                    assert fast_kernel(1) == fast_kernel_loop(1)
                """,
            },
        )
        assert lint_project(root, only=["RL002"]).clean

    def test_method_pair_covered_via_attributes(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/kern.py": """\
                class Predictor:
                    def predict(self, x):
                        return x

                    def predict_loop(self, x):
                        return x
                """,
                "tests/test_kern.py": """\
                def test_bit_exact(predictor):
                    assert predictor.predict(1) == predictor.predict_loop(1)
                """,
            },
        )
        assert lint_project(root, only=["RL002"]).clean

    def test_loop_without_fast_sibling_is_not_a_pair(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                # run_open_loop-style names: no 'run_open' sibling, no pair.
                "src/repro/serving/gen.py": """\
                def run_open_loop(n):
                    return n
                """,
                "tests/test_gen.py": "",
            },
        )
        assert lint_project(root, only=["RL002"]).clean

    def test_private_pairs_are_ignored(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/kern.py": """\
                def _helper(x):
                    return x

                def _helper_loop(x):
                    return x
                """,
                "tests/test_kern.py": "",
            },
        )
        assert lint_project(root, only=["RL002"]).clean


# ----------------------------------------------------------------------
# RL003 — count contract
# ----------------------------------------------------------------------
class TestCountContract:
    def test_unchecked_override_is_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/grng/gen.py": """\
                import numpy as np

                class SloppyGrng:
                    def generate(self, count):
                        return np.zeros(count)
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL003"]), "RL003")
        assert len(found) == 1
        assert found[0].scope == "SloppyGrng.generate"

    def test_check_count_satisfies(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/grng/gen.py": """\
                import numpy as np

                from repro.utils.validation import check_count

                class CheckedGrng:
                    def generate(self, count):
                        count = check_count("sample count", count)
                        return np.zeros(count)

                    def fill(self, out):
                        out = self._check_out(out)
                        out[...] = 0.0
                """
            },
        )
        assert lint_project(root, only=["RL003"]).clean

    def test_delegation_to_checked_entry_point_satisfies(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/grng/gen.py": """\
                class DelegatingGrng:
                    def generate_codes(self, count):
                        count = self._check_count(count)
                        return [0] * count

                    def generate(self, count):
                        return [c * 0.5 for c in self.generate_codes(count)]

                    def fill(self, out):
                        super().fill(out)
                """
            },
        )
        assert lint_project(root, only=["RL003"]).clean

    def test_abstract_and_raise_only_bodies_are_exempt(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/grng/gen.py": """\
                from abc import abstractmethod

                from repro.errors import ConfigurationError

                class StubGrng:
                    @abstractmethod
                    def generate(self, count):
                        \"\"\"Subclasses implement.\"\"\"

                    def generate_codes(self, count):
                        raise ConfigurationError("no integer datapath")
                """
            },
        )
        assert lint_project(root, only=["RL003"]).clean

    def test_grng_named_class_outside_grng_dir_is_covered(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/hw/faulty.py": """\
                import numpy as np

                class FaultyThingGrng:
                    def generate(self, count):
                        return np.zeros(count)
                """
            },
        )
        assert len(findings_of(lint_project(root, only=["RL003"]), "RL003")) == 1

    def test_non_grng_class_outside_grng_dir_is_ignored(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/gen.py": """\
                class LoadPattern:
                    def generate(self, count):
                        return list(range(count))
                """
            },
        )
        assert lint_project(root, only=["RL003"]).clean


# ----------------------------------------------------------------------
# RL004 — typed-error discipline
# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_stray_builtin_raise_is_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/hw/mod.py": """\
                def f(x):
                    if x < 0:
                        raise ValueError("negative")
                    return x
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL004"]), "RL004")
        assert len(found) == 1
        assert found[0].token == "ValueError"

    def test_library_errors_and_reraises_are_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/hw/mod.py": """\
                from repro import errors
                from repro.errors import ConfigurationError, ReproError

                class Holder:
                    def f(self, x):
                        if x < 0:
                            raise ConfigurationError("negative")
                        if x == 0:
                            raise errors.TrainingError("zero")
                        if x == 1:
                            raise NotImplementedError
                        try:
                            return 1 / x
                        except ZeroDivisionError as exc:
                            if x > 10:
                                raise
                            if self._error is not None:
                                raise self._error
                            raise ReproError("bad") from exc
                """
            },
        )
        assert lint_project(root, only=["RL004"]).clean

    def test_test_code_is_out_of_scope(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/hw/mod.py": "x = 1\n",
                "tests/test_mod.py": """\
                def test_raises():
                    raise ValueError("fine in tests")
                """,
            },
        )
        assert lint_project(root, only=["RL004"]).clean


# ----------------------------------------------------------------------
# RL005 — lock discipline
# ----------------------------------------------------------------------
class TestLockDiscipline:
    def test_unlocked_read_of_guarded_attribute_is_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/counter.py": """\
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def increment(self):
                        with self._lock:
                            self.count += 1

                    def value(self):
                        return self.count
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL005"]), "RL005")
        assert len(found) == 1
        assert found[0].scope == "Counter.value"
        assert found[0].token == "count"
        assert "read without it" in found[0].message

    def test_unlocked_write_is_flagged_as_write(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/obs/counter.py": """\
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def increment(self):
                        with self._lock:
                            self.count += 1

                    def reset(self):
                        self.count = 0
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL005"]), "RL005")
        assert len(found) == 1
        assert "written without it" in found[0].message

    def test_locked_reads_and_init_are_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/counter.py": """\
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0
                        self.count = self.count + 0  # __init__ is exempt

                    def increment(self):
                        with self._lock:
                            self.count += 1

                    def value(self):
                        with self._lock:
                            return self.count
                """
            },
        )
        assert lint_project(root, only=["RL005"]).clean

    def test_locked_suffix_helper_is_exempt(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/queue.py": """\
                import threading

                class Queue:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.items = {}

                    def put(self, key, value):
                        with self._lock:
                            self._put_locked(key, value)

                    def _put_locked(self, key, value):
                        self.items[key] = value

                    def pop_locked(self, key):
                        del self.items[key]
                """
            },
        )
        assert lint_project(root, only=["RL005"]).clean

    def test_subscript_store_marks_attribute_guarded(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/store.py": """\
                import threading

                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.entries = {}

                    def put(self, key, value):
                        with self._lock:
                            self.entries[key] = value

                    def snapshot(self):
                        return dict(self.entries)
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL005"]), "RL005")
        assert [finding.scope for finding in found] == ["Store.snapshot"]

    def test_condition_wrapping_the_lock_counts_as_holding_it(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/cond.py": """\
                import threading

                class Waiter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._ready = threading.Condition(self._lock)
                        self.closed = False

                    def close(self):
                        with self._ready:
                            self.closed = True
                            self._ready.notify_all()

                    def is_closed(self):
                        with self._ready:
                            return self.closed
                """
            },
        )
        assert lint_project(root, only=["RL005"]).clean

    def test_nested_function_under_lock_is_treated_as_lock_free(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/obs/cb.py": """\
                import threading

                class Callbacks:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.state = 0

                    def bump(self):
                        with self._lock:
                            self.state += 1

                            def later():
                                return self.state  # runs without the lock

                            return later
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL005"]), "RL005")
        assert len(found) == 1
        assert found[0].scope == "Callbacks.bump"

    def test_unguarded_config_attributes_are_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/cfg.py": """\
                import threading

                class Service:
                    def __init__(self, capacity):
                        self._lock = threading.Lock()
                        self.capacity = capacity
                        self.depth = 0

                    def submit(self):
                        if self.depth >= self.capacity:  # capacity never
                            return False                 # mutated under lock
                        with self._lock:
                            self.depth += 1
                        return True
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL005"]), "RL005")
        # capacity is immutable-after-init: clean; the unlocked depth
        # *read* in submit is the race the rule exists to catch.
        assert [finding.token for finding in found] == ["depth"]

    def test_code_outside_serving_and_obs_is_out_of_scope(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/hw/counter.py": """\
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def increment(self):
                        with self._lock:
                            self.count += 1

                    def value(self):
                        return self.count
                """
            },
        )
        assert lint_project(root, only=["RL005"]).clean


# ----------------------------------------------------------------------
# RL006 — bounded waits in serving
# ----------------------------------------------------------------------
class TestWaitTimeout:
    def test_bare_event_wait_is_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/foo.py": """\
                import threading

                class Gate:
                    def __init__(self):
                        self.event = threading.Event()

                    def block(self):
                        self.event.wait()
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL006"]), "RL006")
        assert len(found) == 1
        assert found[0].scope == "Gate.block"
        assert "timeout" in found[0].message

    def test_literal_none_timeout_is_the_unbounded_form_in_disguise(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/foo.py": """\
                def block(event):
                    event.wait(None)

                def block_kw(event):
                    event.wait(timeout=None)
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL006"]), "RL006")
        assert len(found) == 2

    def test_condition_wait_and_wait_for_need_their_timeout_slot(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/foo.py": """\
                def park(cond):
                    cond.wait()

                def park_for(cond):
                    cond.wait_for(lambda: True)
                """
            },
        )
        found = findings_of(lint_project(root, only=["RL006"]), "RL006")
        assert sorted(finding.scope for finding in found) == ["park", "park_for"]

    def test_bounded_waits_are_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/foo.py": """\
                def poll(event, cond, remaining, **kwargs):
                    event.wait(0.1)
                    event.wait(timeout=remaining)
                    cond.wait(remaining)
                    cond.wait_for(lambda: True, 1.0)
                    cond.wait_for(lambda: True, timeout=None if False else 2.0)
                    event.wait(*[0.5])
                    event.wait(**kwargs)
                """
            },
        )
        assert lint_project(root, only=["RL006"]).clean

    def test_waits_outside_serving_are_out_of_scope(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/obs/foo.py": """\
                def block(event):
                    event.wait()
                """
            },
        )
        assert lint_project(root, only=["RL006"]).clean

    def test_the_repo_serving_tier_is_rl006_clean(self):
        """The real serving package honours its own no-hang rule (modulo
        the committed baseline, which must carry a reason per entry)."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        report = lint_project(root, only=["RL006"])
        assert [finding.fingerprint for finding in report.new] == []


# ----------------------------------------------------------------------
# Engine: suppressions, baseline, CLI exit codes
# ----------------------------------------------------------------------
BAD_SEED_SRC = """\
import numpy as np

def sample():
    return np.random.default_rng(0).random(4)
"""


class TestEngine:
    def test_inline_suppression(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/foo.py": """\
                import numpy as np

                def sample():
                    return np.random.default_rng(0).random(4)  # reprolint: disable=RL001
                """
            },
        )
        report = lint_project(root, only=["RL001"])
        assert report.clean
        assert len(report.suppressed) == 1

    def test_suppression_of_other_rule_does_not_apply(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/foo.py": """\
                import numpy as np

                def sample():
                    return np.random.default_rng(0).random(4)  # reprolint: disable=RL004
                """
            },
        )
        report = lint_project(root, only=["RL001"])
        assert not report.clean

    def test_disable_all_suppresses_every_rule(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/bnn/foo.py": """\
                import numpy as np

                def sample():
                    return np.random.default_rng(0).random(4)  # reprolint: disable=all
                """
            },
        )
        assert lint_project(root, only=["RL001"]).clean

    def test_baseline_filters_and_reports_stale_entries(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/bnn/foo.py": BAD_SEED_SRC})
        raw = lint_project(root, only=["RL001"])
        assert len(raw.new) == 1
        fingerprint = raw.new[0].fingerprint
        baseline = Baseline(
            {fingerprint: "known", "RL001:src/repro/gone.py:<module>:x": "stale"}
        )
        report = lint_project(root, only=["RL001"], baseline=baseline)
        assert report.clean
        assert [finding.fingerprint for finding in report.baselined] == [fingerprint]
        assert report.stale_baseline == ["RL001:src/repro/gone.py:<module>:x"]

    def test_fingerprint_is_line_number_independent(self, tmp_path):
        root_a = make_tree(tmp_path / "a", {"src/repro/bnn/foo.py": BAD_SEED_SRC})
        root_b = make_tree(
            tmp_path / "b",
            {"src/repro/bnn/foo.py": "# a new leading comment\n" + BAD_SEED_SRC},
        )
        finding_a = lint_project(root_a, only=["RL001"]).new[0]
        finding_b = lint_project(root_b, only=["RL001"]).new[0]
        assert finding_a.line != finding_b.line
        assert finding_a.fingerprint == finding_b.fingerprint

    def test_unknown_rule_id_raises(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/bnn/foo.py": "x = 1\n"})
        with pytest.raises(AnalysisError, match="unknown rule"):
            lint_project(root, only=["RL999"])

    def test_unparseable_source_raises(self, tmp_path):
        root = make_tree(tmp_path, {"src/repro/bnn/foo.py": "def broken(:\n"})
        with pytest.raises(AnalysisError, match="cannot parse"):
            lint_project(root)

    def test_project_scan_requires_sources(self, tmp_path):
        with pytest.raises(AnalysisError, match="no Python files"):
            load_project(tmp_path)

    # -- CLI: a deliberately-introduced RL001/RL005 violation fails the
    # -- lint verb (exit 1), and the clean/baselined tree passes (exit 0).
    def test_cli_fails_on_introduced_rl001_violation(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"src/repro/bnn/foo.py": BAD_SEED_SRC})
        assert cli_main(["lint", "--root", str(root)]) == 1
        assert "RL001" in capsys.readouterr().out

    def test_cli_fails_on_introduced_rl005_violation(self, tmp_path, capsys):
        root = make_tree(
            tmp_path,
            {
                "src/repro/serving/counter.py": """\
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def increment(self):
                        with self._lock:
                            self.count += 1

                    def value(self):
                        return self.count
                """
            },
        )
        assert cli_main(["lint", "--root", str(root)]) == 1
        assert "RL005" in capsys.readouterr().out

    def test_cli_baseline_and_json_report(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"src/repro/bnn/foo.py": BAD_SEED_SRC})
        raw = lint_project(root, only=["RL001"])
        baseline_path = root / "analysis-baseline.json"
        Baseline({raw.new[0].fingerprint: "intentional"}).write(baseline_path)
        out_path = tmp_path / "report.json"
        code = cli_main(
            ["lint", "--root", str(root), "--format", "json", "--out", str(out_path)]
        )
        capsys.readouterr()
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["clean"] is True
        assert data["counts"]["baselined"] == 1

    def test_cli_write_baseline_round_trip(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"src/repro/bnn/foo.py": BAD_SEED_SRC})
        assert cli_main(["lint", "--root", str(root), "--write-baseline"]) == 0
        capsys.readouterr()
        baseline = Baseline.load(root / "analysis-baseline.json")
        assert len(baseline.entries) == 1
        # With the written baseline in place the tree now lints clean.
        assert cli_main(["lint", "--root", str(root)]) == 0
        capsys.readouterr()
