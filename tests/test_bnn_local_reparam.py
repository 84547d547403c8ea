"""Local reparameterization: bit-exactness and statistical agreement.

`local_reparam_logits` samples each row's pre-activations instead of the
weights.  The first half pins the kernel to its per-pass reference
(`local_reparam_logits_loop`) bit for bit, for every served generator
and stream block size, across the kernel's own pass chunks, and pins the
epsilon layout (`(N, rows, sum(out_features))` in order, one row's pass
per stream unit) that makes chunked consumption of any pass counts equal
one call, on a stream or on any bare generator.  It also bounds the
kernel's transient memory by its chunk.  The second half checks, on a
trained digits model, that it estimates the same predictive distribution
as weight sampling.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.bnn import Adam, Trainer
from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import (
    CHUNK_EPSILONS,
    LocalReparamPredictor,
    build_weight_stacks,
    local_reparam_logits,
    local_reparam_logits_loop,
    stacked_epsilons,
    stacked_forward_stacks,
    stacked_softmax_average,
)
from repro.datasets import load_digits_split
from repro.errors import ConfigurationError
from repro.experiments.training import make_bnn
from repro.grng import GrngStream, ParallelRlfGrng, available_grngs, make_grng
from repro.grng.base import Grng, NumpyGrng

SIZES = (24, 16, 8, 5)
#: Epsilons of one row's pass: one per output of every layer.
PERIOD = sum(SIZES[1:])
N_PASSES = 7
#: Chunkings of a run: pass counts of consecutive calls on one stream.
CHUNKINGS = ((2, 2, 3), (3, 1, 4), (1, 1, 1, 5))
#: Stream block sizes: refills inside one row's pass, one refill per
#: row's pass, and one refill for a whole call.
BLOCKS = (13, PERIOD, 65536)
#: Rows for which two passes fill one kernel chunk: 7 passes span four
#: chunks, the last one short.
SPANNING_ROWS = CHUNK_EPSILONS // (2 * PERIOD)
#: (rows, stream block size) inputs of the kernel == loop tests: every
#: block for small batches, and one batch that spans kernel chunks.
KERNEL_INPUTS = [(count, block) for count in (1, 8, 64) for block in BLOCKS] + [
    (SPANNING_ROWS, 65536)
]


def network():
    return BayesianNetwork(SIZES, seed=2, initial_sigma=0.1)


def stream(grng, block_size=65536):
    return GrngStream(make_grng(grng, seed=5), block_size=block_size)


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
    @pytest.mark.parametrize("count,block_size", KERNEL_INPUTS)
    @pytest.mark.parametrize("grng", ["numpy", "bnnwallace", "rlf"])
    def test_bit_identical(self, grng, count, block_size):
        layers, x = network().layers, rows(count)
        for n_passes in (N_PASSES, 19):
            fast = local_reparam_logits(layers, x, n_passes, stream(grng, block_size))
            loop = local_reparam_logits_loop(layers, x, n_passes, stream(grng, block_size))
            assert fast.shape == (n_passes, count, SIZES[-1])
            assert fast.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("count,block_size", KERNEL_INPUTS)
    @pytest.mark.parametrize("grng", ["numpy", "bnnwallace", "rlf"])
    def test_consecutive_calls_equal_the_loop(self, grng, count, block_size):
        """Calls of 5, 2 and 5 passes on one stream: each starts where the
        last left off, the same in the kernel and its reference."""
        layers, x = network().layers, rows(count)
        fast_stream = stream(grng, block_size)
        loop_stream = stream(grng, block_size)
        for n_passes in (5, 2, 5):
            fast = local_reparam_logits(layers, x, n_passes, fast_stream)
            loop = local_reparam_logits_loop(layers, x, n_passes, loop_stream)
            assert fast.tobytes() == loop.tobytes()
        assert fast_stream.generate(16).tobytes() == loop_stream.generate(16).tobytes()

    @pytest.mark.parametrize("block_size", BLOCKS)
    @pytest.mark.parametrize("count", [1, 8, 64])
    @pytest.mark.parametrize("grng", ["numpy", "bnnwallace", "rlf"])
    def test_chunked_consumption_equals_one_call(self, grng, count, block_size):
        """Chunks of any pass counts equal one call over their total."""
        layers, x = network().layers, rows(count)
        for sizes in CHUNKINGS:
            whole = local_reparam_logits(layers, x, sum(sizes), stream(grng, block_size))
            shared = stream(grng, block_size)
            chunks = [local_reparam_logits(layers, x, size, shared) for size in sizes]
            assert np.concatenate(chunks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("grng", ["numpy", "bnnwallace", "rlf"])
    def test_draws_one_unit_per_row_pass(self, grng):
        """N · rows · sum(out_features) epsilons; pass s of row r reads
        unit s·rows + r."""
        layers, x = network().layers, rows(3)
        used, fresh = stream(grng), stream(grng)
        local_reparam_logits(layers, x, 4, used)
        fresh.generate(4 * 3 * PERIOD)
        assert used.generate(16).tobytes() == fresh.generate(16).tobytes()
        # Row 1 alone, fed its own units, reproduces its rows of the batch
        # (to rounding: a 1-row GEMM may round differently from a 3-row one).
        block = stream(grng).generate(4 * 3 * PERIOD).reshape(4, 3, PERIOD)
        alone = local_reparam_logits(layers, x[1:2], 4, Replay(block[:, 1]))
        batch = local_reparam_logits(layers, x, 4, stream(grng))
        np.testing.assert_allclose(alone[:, 0], batch[:, 1], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("logits", [local_reparam_logits, local_reparam_logits_loop])
    def test_rejects_a_wrong_row_width(self, logits):
        with pytest.raises(ConfigurationError, match="input shape"):
            logits(network().layers, np.zeros((2, 3)), 2, stream("numpy"))


class TestChunkedMemory:
    """A call holds layer 0's moments, one chunk and the logits, never
    the whole ``(N, rows, sum(out_features))`` epsilon block."""

    ROWS = 1000
    LAYERS = (784, 200, 10)

    def peak(self, n_passes):
        layers = BayesianNetwork(self.LAYERS, seed=0).layers
        x = np.random.default_rng(0).random((self.ROWS, self.LAYERS[0]))
        grng = NumpyGrng(1)
        local_reparam_logits(layers, x, n_passes, grng)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            local_reparam_logits(layers, x, n_passes, grng)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_transient_is_chunk_sized(self):
        n_passes = 10
        block_bytes = n_passes * self.ROWS * sum(self.LAYERS[1:]) * 8
        assert self.peak(n_passes) < block_bytes

    def test_peak_transient_grows_only_by_the_logits(self):
        # Four times the passes add their logits, not their epsilons.
        extra_logits = 30 * self.ROWS * self.LAYERS[-1] * 8
        assert self.peak(40) - self.peak(10) < extra_logits + CHUNK_EPSILONS * 8


class TestBareParallelRlf:
    """A bare ``ParallelRlfGrng`` keeps a hardware clock counter, ``cycle``,
    that the kernel must not read: it draws exactly ``N · rows ·
    sum(out_features)`` samples whether the generator is fresh or
    advanced."""

    @pytest.mark.parametrize("advance", [0, 1000])
    def test_draws_one_plain_block(self, advance):
        layers, x, n_passes = network().layers, rows(3), 4
        used, twin = ParallelRlfGrng(seed=1), ParallelRlfGrng(seed=1)
        used.generate(advance)
        twin.generate(advance)
        logits = local_reparam_logits(layers, x, n_passes, used)
        twin.generate(n_passes * 3 * PERIOD)
        assert logits.shape == (n_passes, 3, SIZES[-1])
        assert np.array_equal(used.state, twin.state)
        assert np.array_equal(used.counts, twin.counts)
        assert used.cycle == twin.cycle


class TestBareGenerators:
    """Without a stream in between, a call is one draw of exactly
    ``N · rows · sum(out_features)`` samples from the generator, fresh
    or advanced, for every registered generator."""

    @pytest.mark.parametrize("advance", [0, 1000])
    @pytest.mark.parametrize("name", available_grngs())
    def test_a_call_is_one_plain_draw(self, name, advance):
        layers, x, n_passes = network().layers, rows(3), 4
        used, twin = make_grng(name, seed=1), make_grng(name, seed=1)
        used.generate(advance)
        twin.generate(advance)
        logits = local_reparam_logits(layers, x, n_passes, used)
        block = twin.generate(n_passes * 3 * PERIOD)
        replayed = local_reparam_logits(layers, x, n_passes, Replay(block))
        assert logits.tobytes() == replayed.tobytes()
        assert used.generate(16).tobytes() == twin.generate(16).tobytes()


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
    """Eq. (6) with every weight sampled per pass (the whole-ensemble kernels)."""
    grng = GrngStream(make_grng("numpy", seed=seed))
    epsilons = stacked_epsilons(net.layers, n_samples, grng)
    stacks = build_weight_stacks(net.layers, epsilons, out=epsilons)
    return stacked_softmax_average(stacked_forward_stacks(stacks, x))


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
