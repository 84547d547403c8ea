"""End-to-end integration: the full paper pipeline on a small workload.

Train a BNN on synthetic digits, export the posterior, run it through
(1) float software MC inference, (2) the quantized functional model with
both hardware GRNGs, and (3) the full accelerator with cycle/energy
accounting — asserting the accuracy relationships the paper's evaluation
rests on.
"""

import pytest

from repro.bnn import Adam, Trainer, accuracy
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.datasets import load_digits_split
from repro.experiments.training import make_bnn, train_pair
from repro.grng import BnnWallaceGrng, ParallelRlfGrng
from repro.hw.accelerator import VibnnAccelerator
from repro.hw.config import ArchitectureConfig


@pytest.fixture(scope="module")
def pipeline():
    x_train, y_train, x_test, y_test = load_digits_split(500, 200, seed=7)
    bnn = make_bnn((784, 48, 10), seed=7)
    Trainer(bnn, Adam(3e-3), batch_size=32, epochs=18, seed=7).fit(x_train, y_train)
    return bnn, x_test, y_test


class TestEndToEnd:
    def test_software_bnn_learns(self, pipeline):
        bnn, x_test, y_test = pipeline
        acc = accuracy(bnn.predict(x_test, n_samples=20), y_test)
        assert acc > 0.75

    def test_quantized_8bit_close_to_float(self, pipeline):
        bnn, x_test, y_test = pipeline
        float_acc = accuracy(bnn.predict(x_test, n_samples=20), y_test)
        quantized = QuantizedBayesianNetwork(
            bnn.posterior_parameters(), bit_length=8, seed=0
        )
        q_acc = accuracy(quantized.predict(x_test, n_samples=20), y_test)
        assert q_acc >= float_acc - 0.06

    @pytest.mark.parametrize("grng_kind", ["rlf", "bnnwallace"])
    def test_accelerator_with_both_grngs(self, pipeline, grng_kind):
        bnn, x_test, y_test = pipeline
        config = ArchitectureConfig(
            pe_sets=2, pes_per_set=8, pe_inputs=8, bit_length=8, grng_kind=grng_kind
        )
        accelerator = VibnnAccelerator(config, bnn.posterior_parameters(), seed=0)
        result = accelerator.infer(x_test, n_samples=20)
        acc = accuracy(result.predictions, y_test)
        float_acc = accuracy(bnn.predict(x_test, n_samples=20), y_test)
        assert acc >= float_acc - 0.08
        assert result.images_per_second > 0
        assert result.images_per_joule > 0

    def test_mc_predictor_with_hardware_grngs(self, pipeline):
        bnn, x_test, y_test = pipeline
        for grng in (
            ParallelRlfGrng(lanes=64, seed=0),
            BnnWallaceGrng(units=8, pool_size=64, seed=0),
        ):
            probs = bnn.predict_proba(x_test, 20, grng=grng)
            acc = accuracy(probs.argmax(axis=1), y_test)
            assert acc > 0.7, type(grng).__name__

    def test_more_mc_samples_never_much_worse(self, pipeline):
        bnn, x_test, y_test = pipeline
        one = accuracy(bnn.predict(x_test, n_samples=1), y_test)
        many = accuracy(bnn.predict(x_test, n_samples=30), y_test)
        assert many >= one - 0.02  # averaging helps (eq. 6)


class TestTrainPairHelper:
    def test_histories_and_models_consistent(self):
        x_train, y_train, x_test, y_test = load_digits_split(200, 100, seed=9)
        pair = train_pair(
            (784, 24, 10), x_train, y_train, x_test, y_test, epochs=6, seed=9
        )
        assert pair.fnn_history.epochs == 6
        assert pair.bnn_history.epochs == 18  # 3x multiplier
        assert 0.0 <= pair.fnn_history.final_test_accuracy() <= 1.0
        assert 0.0 <= pair.bnn_history.final_test_accuracy() <= 1.0
