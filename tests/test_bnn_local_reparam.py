"""Local reparameterization: bit-exactness and statistical agreement.

`local_reparam_logits` samples each row's pre-activations instead of the
weights.  The first half pins the kernel to its per-pass reference
(`local_reparam_logits_loop`) bit for bit, for every served generator and
variance reduction, and pins the epsilon layout (one row's pass per
stream unit, a row's units consecutive within each antithetic pair or
strata cycle, whole cycles drawn per call) that keeps variance reduction
per row in a batch of any width and across calls of any pass count, and
makes chunked consumption equal one call.  The second half
checks, on a trained digits model, that it estimates the same predictive
distribution as weight sampling.
"""

import itertools

import numpy as np
import pytest
from scipy.special import ndtr

from repro.bnn import Adam, Trainer
from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import (
    LocalReparamPredictor,
    MonteCarloPredictor,
    local_reparam_logits,
    local_reparam_logits_loop,
    local_reparam_variances,
)
from repro.datasets import load_digits_split
from repro.errors import ConfigurationError
from repro.experiments.training import make_bnn
from repro.grng import VARIANCE_REDUCTIONS, GrngStream, make_grng, make_stream
from repro.grng.base import Grng
from repro.grng.stream import VARIANCE_REDUCTION_CYCLES

SIZES = (24, 16, 8, 5)
#: Epsilons of one row's pass: one per output of every layer.
PERIOD = sum(SIZES[1:])
N_PASSES = 7
#: Chunkings of a run that keep chunk boundaries on ``grng.cycle``
#: multiples: 2 for antithetic pairs, 8 for the default strata.
CHUNKS = {"plain": (2, 2, 3), "antithetic": (2, 2, 3), "stratified": (8, 8, 3)}


def network():
    return BayesianNetwork(SIZES, seed=2, initial_sigma=0.1)


def stream(grng, variance_reduction="plain", seed=5, period=PERIOD):
    return make_stream(
        make_grng(grng, seed=seed),
        variance_reduction=variance_reduction,
        period=period,
        seed=seed,
    )


class Replay(Grng):
    """Serves a fixed array of epsilons in order."""

    def __init__(self, values):
        self.values, self.pos = values.reshape(-1), 0

    def generate(self, count):
        self.pos += count
        return self.values[self.pos - count : self.pos].copy()


def rows(count):
    return np.random.default_rng(count).normal(size=(count, SIZES[0]))


class TestKernelEqualsLoop:
    @pytest.mark.parametrize("count", [1, 8, 64])
    @pytest.mark.parametrize("variance_reduction", VARIANCE_REDUCTIONS)
    @pytest.mark.parametrize("grng", ["numpy", "bnnwallace", "rlf"])
    def test_bit_identical(self, grng, variance_reduction, count):
        """7 and 19 passes: the last group is drawn whole and cut short."""
        layers, x = network().layers, rows(count)
        for n_passes in (N_PASSES, 19):
            fast = local_reparam_logits(
                layers, x, n_passes, stream(grng, variance_reduction)
            )
            loop = local_reparam_logits_loop(
                layers, x, n_passes, stream(grng, variance_reduction)
            )
            assert fast.shape == (n_passes, count, SIZES[-1])
            assert fast.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("count", [1, 8, 64])
    @pytest.mark.parametrize("variance_reduction", VARIANCE_REDUCTIONS)
    @pytest.mark.parametrize("grng", ["numpy", "bnnwallace", "rlf"])
    def test_consecutive_calls_equal_the_loop(self, grng, variance_reduction, count):
        """Calls of 5, 2 and 5 passes on one stream: each starts where the
        last left off, the same in the kernel and its reference."""
        layers, x = network().layers, rows(count)
        fast_stream = stream(grng, variance_reduction)
        loop_stream = stream(grng, variance_reduction)
        for n_passes in (5, 2, 5):
            fast = local_reparam_logits(layers, x, n_passes, fast_stream)
            loop = local_reparam_logits_loop(layers, x, n_passes, loop_stream)
            assert fast.tobytes() == loop.tobytes()
        assert fast_stream.generate(16).tobytes() == loop_stream.generate(16).tobytes()

    @pytest.mark.parametrize("count", [1, 8, 64])
    @pytest.mark.parametrize("variance_reduction", VARIANCE_REDUCTIONS)
    @pytest.mark.parametrize("grng", ["numpy", "bnnwallace", "rlf"])
    def test_chunked_consumption_equals_one_call(self, grng, variance_reduction, count):
        """Chunks on cycle multiples, the last one short, equal one call."""
        layers, x = network().layers, rows(count)
        sizes = CHUNKS[variance_reduction]
        whole = local_reparam_logits(layers, x, sum(sizes), stream(grng, variance_reduction))
        shared = stream(grng, variance_reduction)
        chunks = [local_reparam_logits(layers, x, size, shared) for size in sizes]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

    def test_antithetic_pairs_run_along_each_rows_passes(self):
        """In a 3-row batch, each row's passes 2k and 2k+1 get opposite
        epsilons: with zero weight means a pair's logits are exact negatives."""
        net = network()
        for layer in net.layers:
            layer.mu_weights[...] = 0.0
            layer.mu_bias[...] = 0.0
        first = net.layers[:1]
        paired = stream("numpy", "antithetic", period=first[0].out_features)
        logits = local_reparam_logits(first, rows(3), 6, paired)
        assert (logits[0::2] == -logits[1::2]).all()

    def test_draws_one_unit_per_row_pass(self):
        """N · rows · sum(out_features) epsilons; on a plain stream (cycle
        1) pass s of row r reads unit s·rows + r."""
        layers, x = network().layers, rows(3)
        used, fresh = stream("numpy"), stream("numpy")
        local_reparam_logits(layers, x, 4, used)
        fresh.generate(4 * 3 * PERIOD)
        assert used.generate(16).tobytes() == fresh.generate(16).tobytes()
        # Row 1 alone, fed its own units, reproduces its rows of the batch
        # (to rounding: a 1-row GEMM may round differently from a 3-row one).
        block = stream("numpy").generate(4 * 3 * PERIOD).reshape(4, 3, PERIOD)
        alone = local_reparam_logits(layers, x[1:2], 4, Replay(block[:, 1]))
        batch = local_reparam_logits(layers, x, 4, stream("numpy"))
        np.testing.assert_allclose(alone[:, 0], batch[:, 1], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("variance_reduction", VARIANCE_REDUCTIONS)
    def test_stream_cycles_match_the_declared_table(self, variance_reduction):
        assert (
            stream("numpy", variance_reduction).cycle
            == VARIANCE_REDUCTION_CYCLES[variance_reduction]
        )

    def test_rejects_a_wrong_row_width(self):
        with pytest.raises(ConfigurationError, match="input shape"):
            local_reparam_logits(network().layers, np.zeros((2, 3)), 2, stream("numpy"))


class TestWholeCyclesPerCall:
    """Consecutive calls whose pass counts are not cycle multiples (N=5,
    then a degraded count, then N=5 again) each keep every row's
    antithetic pairs and strata: a call draws whole cycles per row."""

    @staticmethod
    def zero_mean_layer(width):
        """One layer with zero means: its logits are ``std · eps`` per row."""
        layer = BayesianNetwork((SIZES[0], width), seed=2, initial_sigma=0.1).layers[0]
        layer.mu_weights[...] = 0.0
        layer.mu_bias[...] = 0.0
        return layer

    @pytest.mark.parametrize("count", [1, 3])
    def test_antithetic_pairs_hold_in_every_call(self, count):
        layer = self.zero_mean_layer(SIZES[1])
        paired = stream("numpy", "antithetic", period=SIZES[1])
        for n_passes in (5, 3, 5):
            logits = local_reparam_logits([layer], rows(count), n_passes, paired)
            whole = n_passes - n_passes % 2
            assert (logits[0:whole:2] == -logits[1:whole:2]).all()

    @pytest.mark.parametrize("count", [1, 3])
    def test_strata_hold_in_every_call(self, count):
        """Within a row's strata cycle each component visits each stratum
        at most once, in every call."""
        layer, x = self.zero_mean_layer(SIZES[1]), rows(count)
        [(var_w, var_b)] = local_reparam_variances([layer])
        std = np.sqrt((x * x) @ var_w + var_b)
        strata = stream("numpy", "stratified", period=SIZES[1])
        cycle = strata.cycle
        for n_passes in (5, 4, 5):
            eps = local_reparam_logits([layer], x, n_passes, strata) / std
            visited = np.floor(ndtr(eps) * cycle).astype(int)
            for row in range(count):
                for component in range(SIZES[1]):
                    column = visited[:, row, component]
                    assert len(set(column)) == n_passes

    def test_a_call_draws_whole_cycles(self):
        """5 antithetic passes of 3 rows consume 6 passes' units."""
        layers, x = network().layers, rows(3)
        used, fresh = stream("numpy", "antithetic"), stream("numpy", "antithetic")
        local_reparam_logits(layers, x, 5, used)
        fresh.generate(6 * 3 * PERIOD)
        assert used.generate(16).tobytes() == fresh.generate(16).tobytes()


class TestPredictor:
    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_rejects_a_non_positive_pass_count(self, n_samples):
        predictor = LocalReparamPredictor(network(), stream("numpy"))
        with pytest.raises(ConfigurationError, match="n_samples"):
            predictor.predict_proba(rows(2), n_samples)

    def test_rows_are_distributions(self):
        probs = LocalReparamPredictor(network(), stream("numpy")).predict_proba(rows(5), 4)
        assert probs.shape == (5, SIZES[-1])
        assert np.allclose(probs.sum(axis=1), 1.0)


# ----------------------------------------------------------------------
# Statistical agreement with weight sampling on a trained digits model
# ----------------------------------------------------------------------
#: Rows of the accuracy check: one flipped row is 0.05%, and three
#: weight-sampling seeds at ``ACCURACY_PASSES`` spread over 0.1% here.
ACCURACY_ROWS = 2000
ACCURACY_PASSES = 64
ACCURACY_BUDGET = 0.002
MEAN_PASSES = 64
MEAN_SEEDS = 5


@pytest.fixture(scope="module")
def digits():
    x_train, y_train, x_test, y_test = load_digits_split(2000, ACCURACY_ROWS, seed=0)
    net = make_bnn((784, 32, 10), seed=0)
    Trainer(net, Adam(3e-3), batch_size=32, epochs=8, seed=0).fit(x_train, y_train)
    return net, x_test, y_test


def weight_sampling(net, x, n_samples, seed):
    grng = GrngStream(make_grng("numpy", seed=seed))
    return MonteCarloPredictor(net, grng=grng, n_samples=n_samples).predict_proba(x)


def local_reparam(net, x, n_samples, seed):
    predictor = LocalReparamPredictor(net, GrngStream(make_grng("numpy", seed=seed)))
    return np.concatenate(
        [predictor.predict_proba(x[i : i + 250], n_samples) for i in range(0, len(x), 250)]
    )


class TestAgreesWithWeightSampling:
    def test_predictive_mean_within_weight_samplings_own_spread(self, digits):
        """The bound is weight sampling's own spread: the largest max-|Δp|
        between two of its ``MEAN_SEEDS`` seeds.  The mean over as many
        local-reparameterization seeds must sit within it of theirs."""
        net, x, _ = digits
        x = x[:50]
        sampled = [weight_sampling(net, x, MEAN_PASSES, seed) for seed in range(MEAN_SEEDS)]
        bound = max(
            np.abs(a - b).max() for a, b in itertools.combinations(sampled, 2)
        )
        local = [
            local_reparam(net, x, MEAN_PASSES, 100 + seed) for seed in range(MEAN_SEEDS)
        ]
        gap = np.abs(np.mean(local, axis=0) - np.mean(sampled, axis=0)).max()
        assert 0.0 < bound < 0.1
        assert gap <= bound

    def test_accuracy_matches_within_the_budget(self, digits):
        """Mean accuracy over two seeds each; the two weight-sampling seeds
        themselves must agree within the budget, so it sits above MC noise."""
        net, x, y = digits

        def accuracy(probs):
            return float((probs.argmax(axis=1) == y).mean())

        weights = [accuracy(weight_sampling(net, x, ACCURACY_PASSES, seed)) for seed in (0, 1)]
        local = [accuracy(local_reparam(net, x, ACCURACY_PASSES, seed)) for seed in (0, 1)]
        assert abs(weights[0] - weights[1]) < ACCURACY_BUDGET
        assert abs(np.mean(local) - np.mean(weights)) <= ACCURACY_BUDGET
        assert min(local) > 0.95


def stream_mse(net, x, variance_reduction, reference, seeds=range(24), n_samples=16):
    period = sum(layer.out_features for layer in net.layers)
    errors = []
    for seed in seeds:
        grng = make_stream(
            make_grng("numpy", seed=seed),
            variance_reduction=variance_reduction,
            period=period,
            seed=seed,
        )
        estimate = LocalReparamPredictor(net, grng).predict_proba(x, n_samples)
        errors.append(np.mean((estimate - reference) ** 2))
    return float(np.mean(errors))


def least_confident(net, x, count):
    """Indices of the ``count`` rows of ``x`` with the smallest top-2 margin:
    where the MC error lives."""
    margins = np.sort(weight_sampling(net, x, 16, 0), axis=1)
    return np.argsort(margins[:, -1] - margins[:, -2])[:count]


class TestVarianceReductionOnOneRow:
    """A row reads whole antithetic pairs and strata cycles of its own
    passes, so variance reduction holds per row in a batch of any width."""

    @pytest.mark.parametrize("variance_reduction", ["antithetic", "stratified"])
    def test_no_higher_mse_than_plain(self, digits, variance_reduction):
        net, x, _ = digits
        total = {"plain": 0.0, variance_reduction: 0.0}
        for index in least_confident(net, x[:200], 4):
            row = x[index : index + 1]
            reference = local_reparam(net, row, 8192, 10_000)
            for name in total:
                total[name] += stream_mse(net, row, name, reference)
        assert total[variance_reduction] <= total["plain"]

    @pytest.mark.parametrize("variance_reduction", ["antithetic", "stratified"])
    def test_no_higher_mse_than_plain_on_eight_rows(self, digits, variance_reduction):
        net, x, _ = digits
        batch = x[np.sort(least_confident(net, x[:200], 8))]
        reference = local_reparam(net, batch, 8192, 10_000)
        ratio = stream_mse(net, batch, variance_reduction, reference) / stream_mse(
            net, batch, "plain", reference
        )
        assert ratio <= 1.0
