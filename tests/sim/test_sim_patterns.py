"""Unit tests for pattern batches, random sources, and replay buffers."""

import pytest

from repro._bitops import variable_pattern
from repro.sim import PatternBatch, RandomPatternSource, ReplayBuffer


class TestPatternBatch:
    def test_from_words_roundtrip(self):
        words = [0b101, 0b010, 0b111, 0b000, 0b101]
        batch = PatternBatch.from_words(3, words)
        assert batch.num_inputs == 3
        assert batch.num_patterns == 5
        assert batch.words() == words
        assert [batch.word_at(k) for k in range(5)] == words

    def test_lane_layout(self):
        batch = PatternBatch.from_words(2, [0b01, 0b10, 0b11])
        # Input 0 is set in patterns 0 and 2; input 1 in patterns 1 and 2.
        assert batch.lane(0) == 0b101
        assert batch.lane(1) == 0b110
        assert batch.mask == 0b111

    def test_exhaustive_is_truth_table_order(self):
        batch = PatternBatch.exhaustive(3)
        assert batch.num_patterns == 8
        for var in range(3):
            assert batch.lane(var) == variable_pattern(var, 3)
        assert batch.words() == list(range(8))

    def test_exhaustive_zero_inputs(self):
        batch = PatternBatch.exhaustive(0)
        assert batch.num_patterns == 1
        assert batch.words() == [0]

    def test_random_is_deterministic(self):
        first = PatternBatch.random(5, 32, seed=9)
        second = PatternBatch.random(5, 32, seed=9)
        other = PatternBatch.random(5, 32, seed=10)
        assert first.words() == second.words()
        assert first.words() != other.words()

    def test_word_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PatternBatch.from_words(2, [4])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            PatternBatch.from_words(2, [])

    def test_zero_input_batches_survive(self):
        # 0-input workloads must not crash any constructor.
        exhaustive = PatternBatch.exhaustive(0)
        assert exhaustive.num_patterns == 1
        randomized = PatternBatch.random(0, 5, seed=1)
        assert randomized.words() == [0] * 5


class TestRandomPatternSource:
    def test_stream_is_deterministic(self):
        a = RandomPatternSource(3)
        b = RandomPatternSource(3)
        assert a.batch(4, 16).words() == b.batch(4, 16).words()
        # Successive draws differ but stay aligned between the two streams.
        assert a.batch(4, 16).words() == b.batch(4, 16).words()
        assert a.batches_drawn == 2

    def test_distinct_words(self):
        source = RandomPatternSource(1)
        words = source.words(4, 10, distinct=True)
        assert len(words) == len(set(words)) == 10

    def test_distinct_words_capped_at_space(self):
        source = RandomPatternSource(1)
        words = source.words(3, 100, distinct=True)
        assert sorted(words) == list(range(8))

    def test_zero_input_random_source(self):
        source = RandomPatternSource(3)
        assert source.words(0, 4) == [0, 0, 0, 0]
        assert source.words(0, 4, distinct=True) == [0]


class TestReplayBuffer:
    def test_deduplicates_and_orders_recent_first(self):
        buffer = ReplayBuffer()
        assert buffer.add(3)
        assert not buffer.add(3)
        buffer.extend([7, 1])
        assert buffer.words() == [1, 7, 3]
        assert 7 in buffer and 2 not in buffer

    def test_capacity_evicts_oldest(self):
        buffer = ReplayBuffer(capacity=2)
        buffer.extend([1, 2, 3])
        assert buffer.words() == [3, 2]
        # The evicted word can be re-added.
        assert buffer.add(1)

    def test_batch_filters_out_of_range_words(self):
        buffer = ReplayBuffer()
        buffer.extend([1, 300, 2])
        batch = buffer.batch(4)
        assert batch is not None
        assert sorted(batch.words()) == [1, 2]

    def test_empty_batch_is_none(self):
        assert ReplayBuffer().batch(4) is None
