"""Tests for the GRNG seam: generate/fill/generate_codes contract, GrngStream."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.grng import GrngStream, NumpyGrng, ParallelRlfGrng
from repro.grng.factory import available_grngs, make_grng


class TestBlockContract:
    """generate/fill/count contract for every registered generator."""

    @pytest.mark.parametrize("name", available_grngs())
    def test_fill_matches_generate(self, name):
        # fill writes one contiguous slice of the output stream: a fresh
        # identically seeded generator's flat generate() must agree.
        out = np.empty((3, 17))
        make_grng(name, seed=7).fill(out)
        expected = make_grng(name, seed=7).generate(out.size).reshape(out.shape)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("name", available_grngs())
    def test_zero_count_returns_empty(self, name):
        grng = make_grng(name, seed=0)
        assert grng.generate(0).shape == (0,)
        grng.fill(np.empty(0))  # no-op, must not raise

    @pytest.mark.parametrize("name", available_grngs())
    def test_negative_and_non_integer_counts_rejected(self, name):
        grng = make_grng(name, seed=0)
        with pytest.raises(ConfigurationError):
            grng.generate(-1)
        with pytest.raises(ConfigurationError):
            grng.generate(2.5)

    def test_zero_count_then_stream_continues(self):
        # A zero request must not disturb generator state.
        a = NumpyGrng(3)
        a.generate(0)
        b = NumpyGrng(3)
        assert np.array_equal(a.generate(10), b.generate(10))

    def test_fill_non_contiguous(self):
        out = np.empty((4, 10))[:, ::2]  # non-contiguous view
        NumpyGrng(5).fill(out)
        expected = NumpyGrng(5).generate(out.size).reshape(out.shape)
        assert np.array_equal(out, expected)

    def test_fill_rejects_non_float_dtype(self):
        # An integer target would silently truncate every sample to
        # {-1, 0, 1} while consuming generator state.
        with pytest.raises(ConfigurationError, match="floating"):
            NumpyGrng(0).fill(np.empty(8, dtype=np.int64))
        with pytest.raises(ConfigurationError, match="floating"):
            GrngStream(NumpyGrng(0)).fill(np.empty(8, dtype=np.int64))

    def test_fill_rejects_readonly_target(self):
        out = np.empty(8)
        out.flags.writeable = False
        with pytest.raises(ConfigurationError, match="writable"):
            NumpyGrng(0).fill(out)

    def test_fill_rejects_non_ndarray(self):
        # Writing into a converted copy of a list would silently drop the
        # samples while consuming generator state.
        with pytest.raises(ConfigurationError, match="ndarray"):
            NumpyGrng(0).fill([0.0] * 8)
        with pytest.raises(ConfigurationError, match="ndarray"):
            GrngStream(NumpyGrng(0)).fill([0.0] * 8)


class TestGrngStream:
    def test_call_pattern_invariance(self):
        # The defining property: output depends only on seed + block_size,
        # never on how requests are chopped.
        for name in ("bnnwallace", "box-muller", "wallace-256", "numpy"):
            chopped = GrngStream(make_grng(name, seed=9), block_size=512)
            whole = GrngStream(make_grng(name, seed=9), block_size=512)
            parts = [chopped.generate(n) for n in (7, 500, 1, 0, 892, 100)]
            assert np.array_equal(np.concatenate(parts), whole.generate(1500))

    def test_stream_equals_source_blocks(self):
        stream = GrngStream(NumpyGrng(1), block_size=128)
        source = NumpyGrng(1)
        assert np.array_equal(stream.generate(300), source.generate(384)[:300])

    def test_generate_codes_buffered(self):
        stream = GrngStream(ParallelRlfGrng(lanes=8, seed=2), block_size=64)
        source = ParallelRlfGrng(lanes=8, seed=2)
        got = np.concatenate([stream.generate_codes(n) for n in (5, 60, 63)])
        assert np.array_equal(got, source.generate_codes(128))

    def test_float_and_code_buffers_independent(self):
        stream = GrngStream(ParallelRlfGrng(lanes=8, seed=3), block_size=32)
        floats = stream.generate(10)
        codes = stream.generate_codes(10)
        assert floats.dtype == np.float64 and codes.dtype == np.int64
        assert stream.refills == 2

    def test_refills_amortised(self):
        stream = GrngStream(NumpyGrng(0), block_size=1000)
        for _ in range(100):
            stream.generate(10)
        assert stream.refills == 1
        assert stream.buffered == 0

    def test_codes_unavailable_when_source_has_none(self):
        stream = GrngStream(NumpyGrng(0))
        with pytest.raises(ConfigurationError, match="no integer code datapath"):
            stream.generate_codes(4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GrngStream(NumpyGrng(0), block_size=0)
        with pytest.raises(ConfigurationError):
            GrngStream("not a grng")
        with pytest.raises(ConfigurationError, match="refusing to stack"):
            GrngStream(GrngStream(NumpyGrng(0)))

    @pytest.mark.parametrize("name", available_grngs())
    def test_fill_into_shaped_targets_is_call_pattern_invariant(self, name):
        # fill is the stream's primitive: 2-D blocks, a non-contiguous
        # view and an empty target, filled in turn, are consecutive slices
        # of the one stream a whole-count generate() returns, for every
        # registered generator (including the vectorised rlf/bnnwallace
        # paths and the split-sensitive Wallace and Box-Muller streams).
        chopped = GrngStream(make_grng(name, seed=11), block_size=128)
        backing = np.zeros((4, 10))
        targets = [np.empty((6, 35)), backing[:, ::2], np.empty((0, 3)), np.empty(77)]
        for out in targets:
            chopped.fill(out)
        whole = GrngStream(make_grng(name, seed=11), block_size=128)
        expected = whole.generate(sum(out.size for out in targets))
        assert np.array_equal(
            np.concatenate([out.reshape(-1) for out in targets]), expected
        )
        assert (backing[:, 1::2] == 0).all()  # gaps of the view untouched

    def test_wraps_a_registered_generator(self):
        stream = GrngStream(make_grng("bnnwallace", seed=1), block_size=256)
        assert stream.block_size == 256
        assert stream.generate(10).shape == (10,)


#: Registered generators exposing the integer code datapath.
CODE_GRNGS = ["rlf", "rlf-single", "rlf-single-step", "binomial-lfsr"]


class TestCodeSeam:
    """generate_codes contract (the integer datapath)."""

    @pytest.mark.parametrize("name", CODE_GRNGS)
    def test_zero_count_probe_consumes_nothing(self, name):
        # generate_codes(0) is the free capability probe EpsilonSource
        # issues at construction: empty, and the stream is undisturbed.
        probed = make_grng(name, seed=11)
        assert probed.generate_codes(0).shape == (0,)
        codes = probed.generate_codes(6 * 35)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, make_grng(name, seed=11).generate_codes(6 * 35))

    @pytest.mark.parametrize("name", CODE_GRNGS)
    def test_stream_codes_buffered_and_call_pattern_invariant(self, name):
        # Codes are served from their own buffer in fixed block_size
        # refills: any chopping of the requests, including across refill
        # boundaries, concatenates to the bare generator's code stream.
        stream = GrngStream(make_grng(name, seed=2), block_size=64)
        parts = [stream.generate_codes(n) for n in (5, 60, 0, 63)]
        assert all(part.dtype == np.int64 for part in parts)
        whole = make_grng(name, seed=2).generate_codes(128)
        assert np.array_equal(np.concatenate(parts), whole)
        assert stream.refills == 2

    def test_code_seam_raises_on_codeless_generators_for_any_count(self):
        # Including count 0: generate_codes(0) is the capability probe.
        grng = NumpyGrng(0)
        for count in (0, 4):
            with pytest.raises(ConfigurationError, match="no integer code datapath"):
                grng.generate_codes(count)

    def test_stream_forwards_capability_probe(self):
        # A stream over a float-only source must raise on the zero-count
        # probe too — otherwise consumers would detect a code datapath
        # that fails at the first real draw.
        stream = GrngStream(NumpyGrng(0))
        with pytest.raises(ConfigurationError, match="no integer code datapath"):
            stream.generate_codes(0)
        code_stream = GrngStream(ParallelRlfGrng(lanes=8, seed=1))
        assert code_stream.generate_codes(0).shape == (0,)
        assert code_stream.refills == 0  # the probe consumed nothing
