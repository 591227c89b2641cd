"""Pattern sources for word-parallel simulation.

A :class:`PatternBatch` holds a batch of input patterns in *transposed*
(bit-sliced) form: one packed Python-int lane per input, where bit ``p`` of
lane ``i`` is the value of input ``i`` under pattern ``p``.  This is the
layout the packed engines consume directly — a gate evaluation becomes a
handful of bitwise operations on ``num_patterns``-bit integers, regardless
of how many patterns are in flight.

Three sources cover the needs of the attack and verification flows:

* :meth:`PatternBatch.exhaustive` — all ``2**n`` minterms in truth-table
  order (lane ``i`` is the projection pattern of variable ``i``), so a lane
  over an exhaustive batch *is* a packed truth table;
* :class:`RandomPatternSource` — a seeded, deterministic stream of random
  batches for fuzzing;
* :class:`ReplayBuffer` — an ordered, bounded, deduplicated store of
  interesting words (DIPs, SAT counterexamples, witnesses) that persists
  across calls so later queries re-try the patterns that killed earlier
  candidates first.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .._bitops import variable_pattern

__all__ = ["PatternBatch", "RandomPatternSource", "ReplayBuffer"]


class PatternBatch:
    """An immutable batch of input patterns in bit-sliced form."""

    __slots__ = ("_num_inputs", "_num_patterns", "_lanes")

    def __init__(self, num_inputs: int, num_patterns: int, lanes: Sequence[int]):
        if num_inputs < 0:
            raise ValueError("num_inputs must be non-negative")
        if num_patterns < 1:
            raise ValueError("a batch needs at least one pattern")
        if len(lanes) != num_inputs:
            raise ValueError("one lane per input is required")
        mask = (1 << num_patterns) - 1
        for lane in lanes:
            if lane < 0 or lane > mask:
                raise ValueError("lane does not fit the number of patterns")
        self._num_inputs = num_inputs
        self._num_patterns = num_patterns
        self._lanes = tuple(lanes)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_words(cls, num_inputs: int, words: Sequence[int]) -> "PatternBatch":
        """Build a batch from explicit input words (bit ``i`` = input ``i``)."""
        if not words:
            raise ValueError("a batch needs at least one pattern")
        limit = 1 << num_inputs
        lanes = [0] * num_inputs
        for position, word in enumerate(words):
            if not 0 <= word < limit:
                raise ValueError(f"word {word} out of range for {num_inputs} inputs")
            for index in range(num_inputs):
                if (word >> index) & 1:
                    lanes[index] |= 1 << position
        return cls(num_inputs, len(words), lanes)

    @classmethod
    def exhaustive(cls, num_inputs: int) -> "PatternBatch":
        """All ``2**num_inputs`` patterns in minterm (truth-table) order.

        A net lane simulated over this batch is exactly the packed truth
        table of that net over the primary inputs.
        """
        lanes = [variable_pattern(index, num_inputs) for index in range(num_inputs)]
        return cls(num_inputs, 1 << num_inputs, lanes)

    @classmethod
    def random(
        cls, num_inputs: int, count: int, rng: Optional[random.Random] = None, seed: int = 1
    ) -> "PatternBatch":
        """A batch of ``count`` random patterns (deterministic for a seed)."""
        rng = rng if rng is not None else random.Random(seed)
        if num_inputs == 0:
            # getrandbits(0) raises on some Python versions; the only word a
            # 0-input workload admits is the empty one.
            return cls(0, count, [])
        words = [rng.getrandbits(num_inputs) for _ in range(count)]
        return cls.from_words(num_inputs, words)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_inputs(self) -> int:
        """Number of inputs each pattern assigns."""
        return self._num_inputs

    @property
    def num_patterns(self) -> int:
        """Number of patterns in the batch (the lane width)."""
        return self._num_patterns

    @property
    def mask(self) -> int:
        """The all-ones lane (``num_patterns`` set bits)."""
        return (1 << self._num_patterns) - 1

    @property
    def lanes(self) -> Tuple[int, ...]:
        """The per-input lanes (bit ``p`` of lane ``i`` = input ``i`` in pattern ``p``)."""
        return self._lanes

    def lane(self, index: int) -> int:
        """Return the lane of input ``index``."""
        return self._lanes[index]

    def word_at(self, position: int) -> int:
        """Reconstruct the input word of pattern ``position``."""
        if not 0 <= position < self._num_patterns:
            raise ValueError(f"pattern index {position} out of range")
        word = 0
        for index, lane in enumerate(self._lanes):
            if (lane >> position) & 1:
                word |= 1 << index
        return word

    def words(self) -> List[int]:
        """Return every pattern as an input word, in batch order."""
        return [self.word_at(position) for position in range(self._num_patterns)]

    def __len__(self) -> int:
        return self._num_patterns

    def __repr__(self) -> str:
        return f"PatternBatch(inputs={self._num_inputs}, patterns={self._num_patterns})"


class RandomPatternSource:
    """A deterministic stream of random pattern batches.

    Batches drawn from the same seed in the same order are identical across
    runs and platforms, which keeps every fuzz-before-SAT path reproducible.
    """

    def __init__(self, seed: int = 1):
        self._seed = seed
        self._rng = random.Random(seed)
        self._drawn = 0

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    @property
    def batches_drawn(self) -> int:
        """Number of batches handed out so far."""
        return self._drawn

    def batch(self, num_inputs: int, count: int) -> PatternBatch:
        """Draw the next batch of ``count`` random patterns."""
        self._drawn += 1
        return PatternBatch.random(num_inputs, count, rng=self._rng)

    def words(self, num_inputs: int, count: int, distinct: bool = False) -> List[int]:
        """Draw ``count`` random input words (optionally distinct).

        With ``distinct=True`` the result is capped at ``2**num_inputs``
        words (a full enumeration in random order at the cap).
        """
        self._drawn += 1
        space = 1 << num_inputs
        if num_inputs == 0:
            # The 0-input space has exactly one word (the empty one).
            return [0] if distinct else [0] * count
        if not distinct:
            return [self._rng.getrandbits(num_inputs) for _ in range(count)]
        count = min(count, space)
        if count * 4 >= space:
            return self._rng.sample(range(space), count)
        seen: List[int] = []
        seen_set = set()
        while len(seen) < count:
            word = self._rng.getrandbits(num_inputs)
            if word not in seen_set:
                seen_set.add(word)
                seen.append(word)
        return seen


class ReplayBuffer:
    """A bounded, ordered, deduplicated store of interesting input words.

    The attack and equivalence flows push every distinguishing input, SAT
    counterexample, or refuting fuzz pattern they encounter; later queries
    replay the stored words *first*, because a pattern that killed one
    candidate very often kills the next one too (the classic simulation
    front-end of SAT sweeping).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = capacity
        self._words: List[int] = []
        self._seen = set()

    def add(self, word: int) -> bool:
        """Record a word; returns True when it was new.

        At capacity the oldest word is evicted (FIFO), keeping the most
        recent counterexamples alive.
        """
        if word in self._seen:
            return False
        if len(self._words) >= self._capacity:
            evicted = self._words.pop(0)
            self._seen.discard(evicted)
        self._words.append(word)
        self._seen.add(word)
        return True

    def extend(self, words: Iterable[int]) -> None:
        """Record several words in order."""
        for word in words:
            self.add(word)

    def words(self, limit: Optional[int] = None) -> List[int]:
        """Stored words, most recent first (they refute best)."""
        recent_first = list(reversed(self._words))
        return recent_first if limit is None else recent_first[:limit]

    def batch(self, num_inputs: int, limit: Optional[int] = None) -> Optional[PatternBatch]:
        """Return the stored words as a batch (None when empty).

        Words that do not fit ``num_inputs`` bits are skipped, so one buffer
        can be shared between circuits of different widths.
        """
        space = 1 << num_inputs
        words = [word for word in self.words(limit) if 0 <= word < space]
        if not words:
            return None
        return PatternBatch.from_words(num_inputs, words)

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: int) -> bool:
        return word in self._seen

    def __iter__(self) -> Iterator[int]:
        return iter(self._words)

    def __repr__(self) -> str:
        return f"ReplayBuffer(size={len(self._words)}, capacity={self._capacity})"
