"""Unit tests for address/cache-line geometry helpers."""

import pytest

from repro.mem.address import (
    CACHE_LINE,
    align_up,
    bit,
    is_power_of_two,
    iter_lines,
    line_address,
    line_index,
    parity,
    span_lines,
)


class TestAlignment:

    def test_align_up_already_aligned(self):
        assert align_up(128, 64) == 128

    def test_align_up_rounds_up(self):
        assert align_up(129, 64) == 192

    def test_align_zero(self):
        assert align_up(0, 64) == 0

    @pytest.mark.parametrize("alignment", [0, 3, 6, 100])
    def test_non_power_of_two_alignment_rejected(self, alignment):
        with pytest.raises(ValueError):
            align_up(10, alignment)

    def test_default_alignment_is_cache_line(self):
        assert align_up(1) == CACHE_LINE


class TestLineGeometry:
    def test_line_address_strips_offset(self):
        assert line_address(0x1234) == 0x1200

    def test_line_index(self):
        assert line_index(0x1000) == 0x1000 // 64

    def test_line_address_plus_offset_reconstructs(self):
        for address in (0, 1, 63, 64, 65, 0xDEADBEEF):
            assert line_address(address) + (address & (CACHE_LINE - 1)) == address

    def test_iter_lines_single_byte(self):
        assert list(iter_lines(100, 1)) == [64]

    def test_iter_lines_exactly_one_line(self):
        assert list(iter_lines(128, 64)) == [128]

    def test_iter_lines_straddles_boundary(self):
        assert list(iter_lines(60, 8)) == [0, 64]

    def test_iter_lines_empty(self):
        assert list(iter_lines(100, 0)) == []

    def test_iter_lines_negative_size_rejected(self):
        with pytest.raises(ValueError):
            list(iter_lines(0, -1))

    def test_span_lines_matches_iter(self):
        for address, size in ((0, 1), (60, 8), (0, 64), (1, 128), (63, 2)):
            assert span_lines(address, size) == len(list(iter_lines(address, size)))

    def test_span_lines_zero(self):
        assert span_lines(10, 0) == 0


class TestBitHelpers:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    def test_bit_extraction(self):
        assert bit(0b1010, 1) == 1
        assert bit(0b1010, 0) == 0
        assert bit(0b1010, 3) == 1

    def test_parity_known_values(self):
        assert parity(0) == 0
        assert parity(1) == 1
        assert parity(0b11) == 0
        assert parity(0b111) == 1
        assert parity((1 << 63) | 1) == 0

    def test_parity_matches_popcount(self):
        for value in (0x123456789ABCDEF, 0xFFFF, 0xF0F0F0F0):
            assert parity(value) == bin(value).count("1") % 2
