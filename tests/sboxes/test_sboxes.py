"""Unit tests for the S-box workload data."""

import pytest

from repro.logic import differential_uniformity, is_optimal_4bit_sbox, linearity
from repro.sboxes import (
    DES_SBOX_ROWS,
    OPTIMAL_SBOXES,
    NUM_DES_SBOXES,
    PRESENT_SBOX,
    des_sbox,
    des_sbox_lookup,
    des_sboxes,
    find_optimal_sboxes,
    optimal_sbox,
    optimal_sbox_tables,
    optimal_sboxes,
    present_sbox,
    present_sbox_inverse,
)


class TestPresent:
    def test_lookup_table_value(self):
        assert PRESENT_SBOX[0] == 0xC
        assert PRESENT_SBOX[0xF] == 0x2
        assert sorted(PRESENT_SBOX) == list(range(16))

    def test_function_wrapper(self):
        function = present_sbox()
        assert function.num_inputs == 4
        assert function.num_outputs == 4
        assert function.lookup_table() == PRESENT_SBOX

    def test_inverse(self):
        forward = present_sbox()
        inverse = present_sbox_inverse()
        for word in range(16):
            assert inverse.evaluate_word(forward.evaluate_word(word)) == word

    def test_is_optimal(self):
        assert is_optimal_4bit_sbox(PRESENT_SBOX)


class TestOptimalSet:
    def test_sixteen_distinct_optimal_sboxes(self):
        tables = optimal_sbox_tables()
        assert len(tables) == 16
        assert len({tuple(table) for table in tables}) == 16
        for table in tables:
            assert is_optimal_4bit_sbox(table)

    def test_pinned_tables_are_the_seeded_search_output(self):
        generated = find_optimal_sboxes(15, seed=2017, exclude=[PRESENT_SBOX])
        assert OPTIMAL_SBOXES[1:] == generated
        for table in OPTIMAL_SBOXES:
            assert is_optimal_4bit_sbox(table)

    def test_first_is_present(self):
        assert optimal_sbox_tables()[0] == PRESENT_SBOX
        assert optimal_sbox(0).lookup_table() == PRESENT_SBOX

    def test_optimal_sboxes_counts(self):
        assert len(optimal_sboxes(2)) == 2
        assert len(optimal_sboxes(16)) == 16
        with pytest.raises(ValueError):
            optimal_sboxes(0)
        with pytest.raises(ValueError):
            optimal_sboxes(17)
        with pytest.raises(IndexError):
            optimal_sbox(16)

    def test_generator_is_deterministic(self):
        first = find_optimal_sboxes(3, seed=77)
        second = find_optimal_sboxes(3, seed=77)
        assert first == second
        for table in first:
            assert is_optimal_4bit_sbox(table)

    def test_generator_respects_exclusions(self):
        excluded = find_optimal_sboxes(2, seed=5)
        more = find_optimal_sboxes(2, seed=5, exclude=excluded)
        assert not set(map(tuple, more)) & set(map(tuple, excluded))


class TestDes:
    def test_every_row_is_a_permutation(self):
        assert len(DES_SBOX_ROWS) == NUM_DES_SBOXES
        for box in DES_SBOX_ROWS:
            assert len(box) == 4
            for row in box:
                assert sorted(row) == list(range(16))

    def test_lookup_convention(self):
        # Input 0b000000: row 0, column 0 -> S1[0][0] = 14.
        table = des_sbox_lookup(0)
        assert table[0] == 14
        # Input 0b111111: row 3, column 15 -> S1[3][15] = 13.
        assert table[63] == 13
        # Input 0b000001: outer bits 0,1 -> row 1, column 0 -> 0.
        assert table[1] == DES_SBOX_ROWS[0][1][0]
        # Input 0b100000: outer bits 1,0 -> row 2, column 0.
        assert table[0b100000] == DES_SBOX_ROWS[0][2][0]

    def test_function_wrappers(self):
        functions = des_sboxes()
        assert len(functions) == 8
        for index, function in enumerate(functions):
            assert function.num_inputs == 6
            assert function.num_outputs == 4
            assert function.lookup_table() == des_sbox_lookup(index)

    def test_des_sboxes_are_balanced(self):
        # Each output value appears exactly 4 times per S-box (design criterion).
        for index in range(NUM_DES_SBOXES):
            table = des_sbox_lookup(index)
            for value in range(16):
                assert table.count(value) == 4

    def test_des_cryptographic_measures(self):
        # Known properties of the real DES S-boxes: the maximum DDT entry of
        # every box is 16, and S5 exhibits the famous linearity of 40
        # (Matsui's bias of 20/64).
        for index in range(NUM_DES_SBOXES):
            table = des_sbox_lookup(index)
            assert differential_uniformity(table, 6, 4) == 16
            assert linearity(table, 6, 4) <= 40
        assert linearity(des_sbox_lookup(4), 6, 4) == 40

    def test_index_validation(self):
        with pytest.raises(IndexError):
            des_sbox_lookup(8)
        with pytest.raises(ValueError):
            des_sboxes(0)
        with pytest.raises(ValueError):
            des_sboxes(9)
