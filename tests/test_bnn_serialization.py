"""Tests for posterior save/load, network rebuild and the WPMem memory image."""

import json

import numpy as np
import pytest

from repro.bnn import BayesianNetwork
from repro.bnn.serialization import (
    FORMAT_VERSION,
    export_memory_image,
    load_posterior,
    network_from_posterior,
    save_posterior,
)
from repro.errors import ConfigurationError


def _rewrite_metadata(path, **fields):
    """Rewrite metadata fields of a saved ``.npz`` in place."""
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["metadata"].tobytes()).decode())
    meta.update(fields)
    arrays["metadata"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    ).copy()
    np.savez(path, **arrays)


@pytest.fixture()
def posterior():
    return BayesianNetwork((6, 5, 3), seed=0, initial_sigma=0.04).posterior_parameters()


class TestSaveLoad:
    def test_roundtrip(self, tmp_path, posterior):
        path = tmp_path / "model.npz"
        save_posterior(path, posterior)
        loaded = load_posterior(path)
        assert len(loaded) == len(posterior)
        for saved, original in zip(loaded, posterior):
            for key in ("mu_weights", "sigma_weights", "mu_bias", "sigma_bias"):
                assert np.allclose(saved[key], original[key])

    def test_loaded_posterior_runs_inference(self, tmp_path, posterior):
        from repro.bnn.quantized import QuantizedBayesianNetwork

        path = tmp_path / "model.npz"
        save_posterior(path, posterior)
        network = QuantizedBayesianNetwork(load_posterior(path), bit_length=8, seed=0)
        probs = network.predict_proba(np.zeros((2, 6)), n_samples=3)
        assert probs.shape == (2, 3)

    def test_empty_posterior_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_posterior(tmp_path / "x.npz", [])

    def test_missing_key_rejected(self, tmp_path, posterior):
        del posterior[0]["mu_bias"]
        with pytest.raises(ConfigurationError, match="mu_bias"):
            save_posterior(tmp_path / "x.npz", posterior)

    def test_not_a_posterior_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ConfigurationError, match="metadata"):
            load_posterior(path)

    def test_validation_catches_shape_chain_break(self, tmp_path, posterior):
        posterior[1]["mu_weights"] = np.zeros((99, 3))
        posterior[1]["sigma_weights"] = np.zeros((99, 3))
        path = tmp_path / "bad.npz"
        save_posterior(path, posterior)
        with pytest.raises(ConfigurationError, match="chain"):
            load_posterior(path)

    def test_negative_sigma_rejected(self, tmp_path, posterior):
        posterior[0]["sigma_weights"] = posterior[0]["sigma_weights"] * -1
        path = tmp_path / "bad.npz"
        save_posterior(path, posterior)
        with pytest.raises(ConfigurationError, match="negative sigma"):
            load_posterior(path)


class TestNetworkFromPosterior:
    def test_round_trip_preserves_posterior(self, posterior):
        rebuilt = network_from_posterior(posterior, seed=4)
        assert rebuilt.layer_sizes == (6, 5, 3)
        for original, params in zip(posterior, rebuilt.posterior_parameters()):
            assert np.array_equal(params["mu_weights"], original["mu_weights"])
            assert np.array_equal(params["mu_bias"], original["mu_bias"])
            # sigma survives the softplus^-1 round trip to float precision
            for key in ("sigma_weights", "sigma_bias"):
                np.testing.assert_allclose(params[key], original[key], rtol=1e-12)

    def test_empty_posterior_rejected(self):
        with pytest.raises(ConfigurationError):
            network_from_posterior([])


class TestFormatVersioning:
    def test_newer_version_rejected_with_upgrade_hint(self, tmp_path, posterior):
        path = tmp_path / "future.npz"
        save_posterior(path, posterior)
        _rewrite_metadata(path, version=FORMAT_VERSION + 1)
        with pytest.raises(ConfigurationError, match="newer than this library"):
            load_posterior(path)
        with pytest.raises(ConfigurationError, match="upgrade"):
            load_posterior(path)

    def test_older_version_rejected(self, tmp_path, posterior):
        path = tmp_path / "ancient.npz"
        save_posterior(path, posterior)
        _rewrite_metadata(path, version=0)
        with pytest.raises(ConfigurationError, match="unsupported format version"):
            load_posterior(path)

    def test_malformed_version_rejected(self, tmp_path, posterior):
        path = tmp_path / "mangled.npz"
        save_posterior(path, posterior)
        _rewrite_metadata(path, version="two")
        with pytest.raises(ConfigurationError, match="malformed format version"):
            load_posterior(path)


class TestMemoryImage:
    def test_image_arrays(self, posterior):
        image = export_memory_image(posterior, bit_length=8)
        assert image["layer0_mu_codes"].shape == (6, 5)
        assert image["layer0_mu_codes"].dtype == np.int16
        assert set(k.split("_", 1)[1] for k in image) == {
            "mu_codes",
            "sigma_codes",
            "mu_bias_codes",
            "sigma_bias_codes",
        }

    def test_codes_within_8bit_range(self, posterior):
        image = export_memory_image(posterior, bit_length=8)
        for array in image.values():
            assert array.max() <= 127 and array.min() >= -128

    def test_quantization_matches_weight_format(self, posterior):
        from repro.bnn.quantized import weight_format

        image = export_memory_image(posterior, bit_length=8)
        fmt = weight_format(8)
        expected = fmt.quantize(posterior[0]["mu_weights"])
        assert (image["layer0_mu_codes"] == expected).all()

    def test_foreign_kind_is_not_a_posterior(self, tmp_path, posterior):
        path = tmp_path / "image.npz"
        save_posterior(path, posterior)
        _rewrite_metadata(path, kind="memory-image")
        with pytest.raises(ConfigurationError, match="not a posterior file"):
            load_posterior(path)

    def test_legacy_posterior_without_kind_still_loads(self, tmp_path, posterior):
        """Version-1 files written before the 'kind' field must keep loading."""
        path = tmp_path / "legacy.npz"
        save_posterior(path, posterior)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["metadata"].tobytes()).decode())
        del meta["kind"]
        arrays["metadata"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        ).copy()
        np.savez(path, **arrays)
        assert len(load_posterior(path)) == len(posterior)
