"""Posterior parameter serialization — the train-offline / ship-to-FPGA step.

§2.2: "the trained variational parameters (vectors) mu and sigma are
migrated to the memory of the target FPGA platform".  This module is that
migration: it saves a trained posterior to a single ``.npz`` file (float
parameters plus metadata) and reloads it for the accelerator, and can also
emit the *quantized memory image* — the raw integer codes, laid out
per layer, that would be burned into the WPMems.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.bnn.activations import inverse_softplus
from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.quantized import weight_format
from repro.errors import ConfigurationError

FORMAT_VERSION = 1


def network_from_posterior(
    posterior: list[dict[str, np.ndarray]], *, prior=None, seed: int = 0
) -> BayesianNetwork:
    """Rebuild a :class:`BayesianNetwork` from exported ``(mu, sigma)``.

    The inverse of
    :meth:`~repro.bnn.bayesian.BayesianNetwork.posterior_parameters`:
    layer sizes are inferred from the weight shapes, ``rho`` is recovered
    as ``softplus^-1(sigma)``.  ``seed`` only seeds the NumPy epsilon
    streams (training and ``predict_proba(grng=None)``) — the posterior
    parameters are taken verbatim.
    """
    if not posterior:
        raise ConfigurationError("posterior parameter list is empty")
    sizes = (posterior[0]["mu_weights"].shape[0],) + tuple(
        params["mu_weights"].shape[1] for params in posterior
    )
    network = BayesianNetwork(sizes, prior=prior, seed=seed)
    for layer, params in zip(network.layers, posterior):
        layer.mu_weights = np.array(params["mu_weights"], dtype=np.float64)
        layer.mu_bias = np.array(params["mu_bias"], dtype=np.float64)
        layer.rho_weights = inverse_softplus(
            np.asarray(params["sigma_weights"], dtype=np.float64)
        )
        layer.rho_bias = inverse_softplus(
            np.asarray(params["sigma_bias"], dtype=np.float64)
        )
    return network


def save_posterior(path: "str | pathlib.Path", posterior: list[dict[str, np.ndarray]]) -> None:
    """Save exported posterior parameters to ``path`` (.npz).

    ``posterior`` is the output of
    :meth:`repro.bnn.bayesian.BayesianNetwork.posterior_parameters`.
    """
    if not posterior:
        raise ConfigurationError("posterior parameter list is empty")
    arrays: dict[str, np.ndarray] = {}
    for index, params in enumerate(posterior):
        for key in ("mu_weights", "sigma_weights", "mu_bias", "sigma_bias"):
            if key not in params:
                raise ConfigurationError(f"layer {index} missing {key!r}")
            arrays[f"layer{index}_{key}"] = np.asarray(params[key], dtype=np.float64)
    meta = {"version": FORMAT_VERSION, "kind": "posterior", "layers": len(posterior)}
    arrays["metadata"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    ).copy()
    np.savez_compressed(str(path), **arrays)


def _check_format_version(path: "str | pathlib.Path", meta: dict) -> None:
    """Reject incompatible ``metadata`` versions with an actionable message.

    A *newer* version means the file was written by a newer library than
    the one reading it — the one failure mode that silently corrupting
    would be worst, so it gets its own message telling the operator to
    upgrade rather than suggesting the file is broken.
    """
    version = meta.get("version")
    if not isinstance(version, int):
        raise ConfigurationError(
            f"{path}: malformed format version {version!r} in metadata"
        )
    if version > FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: format version {version} is newer than this library "
            f"supports (<= {FORMAT_VERSION}); upgrade the repro library to read it"
        )
    if version != FORMAT_VERSION:
        raise ConfigurationError(f"{path}: unsupported format version {version}")


def load_posterior(path: "str | pathlib.Path") -> list[dict[str, np.ndarray]]:
    """Load posterior parameters saved by :func:`save_posterior`."""
    with np.load(str(path)) as data:
        if "metadata" not in data:
            raise ConfigurationError(f"{path}: not a posterior file (no metadata)")
        meta = json.loads(bytes(data["metadata"].tobytes()).decode())
        _check_format_version(path, meta)
        # Version-1 posterior files predate the "kind" field; absence
        # means posterior.
        kind = meta.get("kind", "posterior")
        if kind != "posterior":
            raise ConfigurationError(
                f"{path}: not a posterior file (kind={kind!r})"
            )
        if not isinstance(meta.get("layers"), int):
            raise ConfigurationError(f"{path}: malformed metadata (no layer count)")
        posterior = []
        for index in range(meta["layers"]):
            layer = {}
            for key in ("mu_weights", "sigma_weights", "mu_bias", "sigma_bias"):
                name = f"layer{index}_{key}"
                if name not in data:
                    raise ConfigurationError(f"{path}: missing array {name}")
                layer[key] = data[name]
            posterior.append(layer)
    _validate_posterior(posterior)
    return posterior


def _validate_posterior(posterior: list[dict[str, np.ndarray]]) -> None:
    previous_out = None
    for index, layer in enumerate(posterior):
        mu = layer["mu_weights"]
        if mu.ndim != 2:
            raise ConfigurationError(f"layer {index}: mu_weights must be 2-D")
        if layer["sigma_weights"].shape != mu.shape:
            raise ConfigurationError(f"layer {index}: sigma/mu shape mismatch")
        if layer["mu_bias"].shape != (mu.shape[1],):
            raise ConfigurationError(f"layer {index}: bias shape mismatch")
        if np.any(layer["sigma_weights"] < 0) or np.any(layer["sigma_bias"] < 0):
            raise ConfigurationError(f"layer {index}: negative sigma")
        if previous_out is not None and mu.shape[0] != previous_out:
            raise ConfigurationError(
                f"layer {index}: input size {mu.shape[0]} does not chain "
                f"with previous output {previous_out}"
            )
        previous_out = mu.shape[1]


def export_memory_image(
    posterior: list[dict[str, np.ndarray]], bit_length: int = 8
) -> dict[str, np.ndarray]:
    """The WPMem contents: quantized ``(mu, sigma)`` codes per layer.

    Returns a dict of ``int16`` arrays named ``layer<i>_<param>_codes`` —
    exactly what the external memory of Fig. 2 would hold before being
    streamed into the on-chip WPMems.
    """
    _validate_posterior(posterior)
    fmt = weight_format(bit_length)
    image: dict[str, np.ndarray] = {}
    for index, layer in enumerate(posterior):
        image[f"layer{index}_mu_codes"] = fmt.quantize(layer["mu_weights"]).astype(np.int16)
        image[f"layer{index}_sigma_codes"] = fmt.quantize(layer["sigma_weights"]).astype(np.int16)
        image[f"layer{index}_mu_bias_codes"] = fmt.quantize(layer["mu_bias"]).astype(np.int16)
        image[f"layer{index}_sigma_bias_codes"] = fmt.quantize(layer["sigma_bias"]).astype(np.int16)
    return image
