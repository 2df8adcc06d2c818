"""Unit tests for Complex Addressing hash functions."""

import collections
import copy
import pickle
import random

import numpy as np
import pytest

from repro.cachesim.hashfn import (
    ComplexAddressingHash,
    HASWELL_MASKS_8_SLICE,
    MAX_SLICES,
    ModularSliceHash,
    O0_BITS,
    O1_BITS,
    O2_BITS,
    haswell_complex_hash,
    scalar_slice_of,
    span_slices_of,
)
from repro.cachesim import hashfn
from repro.mem.address import CACHE_LINE


class TestComplexAddressingHash:
    def test_slice_count_from_masks(self):
        assert haswell_complex_hash(8).n_slices == 8
        assert haswell_complex_hash(4).n_slices == 4
        assert haswell_complex_hash(2).n_slices == 2

    def test_unsupported_slice_counts(self):
        with pytest.raises(ValueError):
            haswell_complex_hash(16)
        with pytest.raises(ValueError):
            haswell_complex_hash(3)

    def test_requires_masks(self):
        with pytest.raises(ValueError):
            ComplexAddressingHash([])

    def test_output_in_range(self):
        h = haswell_complex_hash(8)
        for address in range(0, 1 << 16, CACHE_LINE):
            assert 0 <= h.slice_of(address) < 8

    def test_same_line_same_slice(self):
        h = haswell_complex_hash(8)
        base = 0x12345000
        # Bits below 6 are not part of any mask; all bytes of a line
        # share one slice.
        for offset in range(CACHE_LINE):
            assert h.slice_of(base + offset) == h.slice_of(base)

    def test_xor_linearity(self):
        """slice(a) ^ slice(a ^ d) depends only on d — the property
        the reverse-engineering technique relies on."""
        h = haswell_complex_hash(8)
        delta = 1 << 12
        expected = h.slice_of(0) ^ h.slice_of(delta)
        for base in (0x100000, 0x3F0000, 0xABCDE000):
            base &= ~(CACHE_LINE - 1)
            assert (h.slice_of(base) ^ h.slice_of(base ^ delta)) == expected

    def test_adjacent_lines_almost_always_differ(self):
        """'Complex Addressing maps almost every cache line (64 B) to a
        different LLC slice' (§4.2) — carries across many hash bits can
        occasionally preserve the slice, but only rarely."""
        h = haswell_complex_hash(8)
        same = sum(
            h.slice_of(line * CACHE_LINE) == h.slice_of((line + 1) * CACHE_LINE)
            for line in range(4096)
        )
        assert same / 4096 < 0.01

    def test_block_balance(self):
        """Every aligned 8-line block holds one line of each slice."""
        h = haswell_complex_hash(8)
        for block in range(0, 64):
            slices = {h.slice_of((block * 8 + i) * CACHE_LINE) for i in range(8)}
            assert slices == set(range(8))

    def test_roughly_uniform_distribution(self):
        h = haswell_complex_hash(8)
        counts = collections.Counter(
            h.slice_of(i * CACHE_LINE) for i in range(1 << 14)
        )
        expected = (1 << 14) / 8
        for count in counts.values():
            assert abs(count - expected) / expected < 0.02

    def test_published_bit_positions(self):
        masks = HASWELL_MASKS_8_SLICE
        assert masks[0] == sum(1 << b for b in O0_BITS)
        assert masks[1] == sum(1 << b for b in O1_BITS)
        assert masks[2] == sum(1 << b for b in O2_BITS)

    def test_uses_bit(self):
        h = haswell_complex_hash(8)
        assert h.uses_bit(6)
        assert h.uses_bit(34)
        assert not h.uses_bit(5)
        assert not h.uses_bit(9)

    def test_output_bit_matches_slice(self):
        h = haswell_complex_hash(8)
        for address in (0, 0x40, 0x1000, 0xDEADBEC0):
            value = sum(h.output_bit(address, i) << i for i in range(3))
            assert value == h.slice_of(address)


class TestModularSliceHash:
    @pytest.mark.parametrize("n_slices", [1, 2, 8, 10, 18, 28])
    def test_output_in_range(self, n_slices):
        h = ModularSliceHash(n_slices)
        for line in range(512):
            assert 0 <= h.slice_of(line * CACHE_LINE) < n_slices

    def test_block_balance(self):
        """Each aligned n-line block is a permutation of all slices."""
        h = ModularSliceHash(18)
        for block in range(64):
            slices = [h.slice_of((block * 18 + i) * CACHE_LINE) for i in range(18)]
            assert sorted(slices) == list(range(18))

    def test_deterministic(self):
        a = ModularSliceHash(18, seed=5)
        b = ModularSliceHash(18, seed=5)
        assert all(
            a.slice_of(i * CACHE_LINE) == b.slice_of(i * CACHE_LINE)
            for i in range(1000)
        )

    def test_seed_changes_mapping(self):
        a = ModularSliceHash(18, seed=1)
        b = ModularSliceHash(18, seed=2)
        diffs = sum(
            a.slice_of(i * CACHE_LINE) != b.slice_of(i * CACHE_LINE)
            for i in range(1000)
        )
        assert diffs > 500

    def test_uniform_distribution(self):
        h = ModularSliceHash(18)
        counts = collections.Counter(h.slice_of(i * CACHE_LINE) for i in range(18 * 1000))
        for count in counts.values():
            assert count == 1000  # block balance makes it exact

    def test_invalid_slice_count(self):
        with pytest.raises(ValueError):
            ModularSliceHash(0)

    def test_same_line_same_slice(self):
        h = ModularSliceHash(18)
        for offset in range(CACHE_LINE):
            assert h.slice_of(0x1000 + offset) == h.slice_of(0x1000)


def _one_bit_masks(n_bits):
    """XOR masks whose output bit *i* is line-address bit *i*."""
    return [1 << (6 + i) for i in range(n_bits)]


class TestSliceCountBound:
    """Slice indices are ``uint8`` on every vectorised path, so a slice
    count past :data:`MAX_SLICES` is rejected instead of wrapping."""

    def test_more_than_256_slices_rejected(self):
        with pytest.raises(ValueError):
            ModularSliceHash(300)
        with pytest.raises(ValueError):
            ModularSliceHash(MAX_SLICES + 1)
        with pytest.raises(ValueError):
            ComplexAddressingHash(_one_bit_masks(9))

    @pytest.mark.parametrize(
        "slice_hash",
        [ModularSliceHash(MAX_SLICES), ComplexAddressingHash(_one_bit_masks(8))],
        ids=["modular-256", "xor-256"],
    )
    def test_largest_count_matches_scalar(self, slice_hash):
        addresses = np.arange(1200, dtype=np.uint64) * np.uint64(CACHE_LINE)
        vector = slice_hash.slice_of_array(addresses).tolist()
        assert vector == [slice_hash.slice_of(int(a)) for a in addresses]
        assert max(vector) > 200


def _random_addresses(seed, n=20_000):
    """Random 64-bit addresses (any offset in the line, bits far above
    every mask), plus each single bit and each single bit above a line."""
    rng = random.Random(seed)
    addresses = [rng.getrandbits(64) for _ in range(n)]
    addresses += [1 << bit for bit in range(64)]
    addresses += [(1 << bit) | 0x12345FC0 for bit in range(64)]
    return addresses


def _spans_match(slice_hash, seed):
    """``fast_span_slices`` equals ``slice_of`` line by line on spans of
    1..40 lines from random starts, some ending past a 2 MiB (32k-line)
    boundary where the XOR hash's low table wraps."""
    rng = random.Random(seed)
    starts = [rng.getrandbits(64) for _ in range(300)]
    starts += [((rng.getrandbits(40) << 21) - rng.randrange(1, 40) * CACHE_LINE)
               for _ in range(300)]
    for first in starts:
        n_lines = rng.randint(1, 40)
        expected = [slice_hash.slice_of(first + k * CACHE_LINE) for k in range(n_lines)]
        assert list(slice_hash.fast_span_slices(first, n_lines)) == expected, (first, n_lines)


class TestFastSliceOf:
    """The exact scalar and span forms the per-line paths use."""

    @pytest.mark.parametrize("n_slices", [2, 4, 8])
    def test_xor_tables_equal_slice_of(self, n_slices):
        h = haswell_complex_hash(n_slices)
        top = max(mask.bit_length() for mask in h.masks)
        addresses = _random_addresses(n_slices)
        assert sum(a >> top != 0 for a in addresses) > len(addresses) // 2
        fast = h.fast_slice_of
        assert [fast(a) for a in addresses] == [h.slice_of(a) for a in addresses]
        _spans_match(h, n_slices)

    def test_xor_tables_for_any_masks(self):
        # One mask reaching bit 63, one on the line offset, one empty
        # chunk in between: three or more tables.
        h = ComplexAddressingHash([0b101 << 2, (1 << 63) | (1 << 40), 1 << 2])
        addresses = _random_addresses(7)
        assert [h.fast_slice_of(a) for a in addresses] == [
            h.slice_of(a) for a in addresses
        ]
        _spans_match(h, 7)
        assert ComplexAddressingHash([0]).fast_slice_of(0xFFFF_FFC0) == 0
        assert ComplexAddressingHash([0]).fast_span_slices(0, 3) == bytes(3)

    def test_xor_tables_shared_per_mask_tuple(self):
        assert haswell_complex_hash(8).fast_slice_of is haswell_complex_hash(8).fast_slice_of
        assert haswell_complex_hash(8).fast_slice_of is not haswell_complex_hash(4).fast_slice_of

    @pytest.mark.parametrize("seed", [0, 12345])
    def test_modular_block_cache_equals_slice_of(self, seed):
        h = ModularSliceHash(18, seed=seed) if seed else ModularSliceHash(18)
        addresses = _random_addresses(18)
        # Consecutive lines: every block is looked up once per line.
        addresses += list(range(0x4000_0000, 0x4000_0000 + 4096 * CACHE_LINE, CACHE_LINE))
        fast = h.fast_slice_of
        first = [fast(a) for a in addresses]
        assert first == [h.slice_of(a) for a in addresses]
        assert [fast(a) for a in addresses] == first  # served from the cache
        _spans_match(h, seed)

    def test_modular_block_cache_starts_over_when_full(self, monkeypatch):
        monkeypatch.setattr(hashfn, "_BLOCK_CACHE_MAX", 4)
        h = ModularSliceHash(18)
        addresses = list(range(0, 64 * 18 * CACHE_LINE, CACHE_LINE)) * 2
        assert [h.fast_slice_of(a) for a in addresses] == [
            h.slice_of(a) for a in addresses
        ]
        _spans_match(h, 4)

    @pytest.mark.parametrize(
        "slice_hash", [haswell_complex_hash(8), ModularSliceHash(18)], ids=["xor", "modular"]
    )
    def test_pickle_and_copy_rebuild_the_fast_form(self, slice_hash):
        addresses = _random_addresses(3, n=2000)
        for clone in (pickle.loads(pickle.dumps(slice_hash)), copy.deepcopy(slice_hash)):
            assert [clone.fast_slice_of(a) for a in addresses] == [
                slice_hash.slice_of(a) for a in addresses
            ]
            _spans_match(clone, 5)
            state = clone.__getstate__()
            assert "fast_slice_of" not in state and "fast_span_slices" not in state

    def test_scalar_slice_of_falls_back_to_slice_of(self):
        class PlainHash:
            n_slices = 2

            def slice_of(self, address):
                return address >> 6 & 1

        plain = PlainHash()
        assert scalar_slice_of(plain) == plain.slice_of
        assert span_slices_of(plain)(0x40, 4) == bytes([1, 0, 1, 0])
        h = ModularSliceHash(18)
        assert scalar_slice_of(h) is h.fast_slice_of
        assert span_slices_of(h) is h.fast_span_slices
