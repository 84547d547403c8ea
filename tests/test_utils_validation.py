"""Unit tests for repro.utils.validation."""

import pytest

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive, check_probability


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1e-9)

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", bad)


class TestCheckProbability:
    def test_accepts_interior(self):
        check_probability("p", 0.5)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability("p", bad)
