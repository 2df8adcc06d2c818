"""Unit tests for O(1) slice-local arrays."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.hashfn import (
    ComplexAddressingHash,
    ModularSliceHash,
    haswell_complex_hash,
)
from repro.core.reverse_engineering import RecoveredHash
from repro.mem.address import CACHE_LINE
from repro.mem.slice_array import SliceLocalArray


class TestSliceLocalArray:
    def test_every_line_in_target_slice_xor_hash(self):
        h = haswell_complex_hash(8)
        array = SliceLocalArray(0, 256, h, target_slice=3, block_lines=8)
        for i in range(256):
            assert h.slice_of(array.line_address(i)) == 3

    def test_every_line_in_target_slice_modular_hash(self):
        h = ModularSliceHash(18)
        array = SliceLocalArray(0, 128, h, target_slice=7, block_lines=18)
        for i in range(128):
            assert h.slice_of(array.line_address(i)) == 7

    def test_lines_are_distinct(self):
        h = haswell_complex_hash(8)
        array = SliceLocalArray(0, 512, h, target_slice=0, block_lines=8)
        addresses = {array.line_address(i) for i in range(512)}
        assert len(addresses) == 512

    def test_line_in_its_block(self):
        h = haswell_complex_hash(8)
        array = SliceLocalArray(0, 64, h, target_slice=1, block_lines=8)
        for i in range(64):
            address = array.line_address(i)
            assert i * array.block_bytes <= address < (i + 1) * array.block_bytes

    def test_memoisation_consistency(self):
        h = haswell_complex_hash(8)
        array = SliceLocalArray(0, 16, h, target_slice=2, block_lines=8)
        first = [array.line_address(i) for i in range(16)]
        second = [array.line_address(i) for i in range(16)]
        assert first == second

    def test_out_of_range_index(self):
        h = haswell_complex_hash(8)
        array = SliceLocalArray(0, 4, h, target_slice=0, block_lines=8)
        with pytest.raises(IndexError):
            array.line_address(4)
        with pytest.raises(IndexError):
            array.line_address(-1)

    @pytest.mark.parametrize("block_lines", [0, -8])
    def test_nonpositive_block_lines_rejected(self, block_lines):
        with pytest.raises(ValueError):
            SliceLocalArray(0, 4, haswell_complex_hash(8), 0, block_lines=block_lines)

    def test_unaligned_base_rejected(self):
        with pytest.raises(ValueError):
            SliceLocalArray(10, 4, haswell_complex_hash(8), 0)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            SliceLocalArray(0, 0, haswell_complex_hash(8), 0)

    def test_probe_exhaustion_raises(self):
        class StubbornHash:
            n_slices = 4

            def slice_of(self, address):
                return 0

        array = SliceLocalArray(0, 4, StubbornHash(), target_slice=3, block_lines=8)
        with pytest.raises(LookupError):
            array.line_address(0)

    def test_nonzero_base(self):
        h = haswell_complex_hash(8)
        base = 1 << 30
        array = SliceLocalArray(base, 32, h, target_slice=5, block_lines=8)
        for i in range(32):
            address = array.line_address(i)
            assert address >= base
            assert h.slice_of(address) == 5

    def test_set_balance_of_dense_allocation(self):
        """Full-density slice-local arrays load LLC sets evenly — the
        property that keeps Fig. 6/7 free of self-conflict misses."""
        h = haswell_complex_hash(8)
        n = 4096
        array = SliceLocalArray(0, n, h, target_slice=0, block_lines=8)
        counts = {}
        for i in range(n):
            set_index = (array.line_address(i) >> 6) & 2047
            counts[set_index] = counts.get(set_index, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 2


class ScalarOnlyHash:
    """The Haswell hash without ``slice_of_array`` (the scalar path)."""

    def __init__(self):
        inner = haswell_complex_hash(8)
        self.n_slices = inner.n_slices
        self.slice_of = inner.slice_of


HASHES = {
    "haswell-xor": haswell_complex_hash(8),
    "skylake-modular": ModularSliceHash(18),
    "scalar-only": ScalarOnlyHash(),
}


@pytest.mark.parametrize("name", sorted(HASHES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    base_line=st.integers(0, 1 << 26),
    n_lines=st.integers(1, 300),
    blocks_per_hash_block=st.integers(1, 2),
    data=st.data(),
)
def test_line_addresses_match_line_address(
    name, base_line, n_lines, blocks_per_hash_block, data
):
    """The vector form equals the per-index form, element for element."""
    slice_hash = HASHES[name]
    target = data.draw(st.integers(0, slice_hash.n_slices - 1))

    def make():
        return SliceLocalArray(
            base_line * CACHE_LINE,
            n_lines,
            slice_hash,
            target_slice=target,
            block_lines=blocks_per_hash_block * slice_hash.n_slices,
        )

    probed = make()
    expected = [
        block_base + probed._probe(block_base) * CACHE_LINE
        for block_base in _block_bases(probed)
    ]
    vector = make()
    addresses = vector.line_addresses()
    assert addresses.dtype == np.uint64
    assert addresses.tolist() == expected
    assert [vector.line_address(i) for i in range(n_lines)] == expected
    scalar = make()
    assert [scalar.line_address(i) for i in range(n_lines)] == expected


def test_line_addresses_probe_exhaustion_raises():
    class StubbornHash:
        n_slices = 4

        def slice_of(self, address):
            return 0

    array = SliceLocalArray(0, 4, StubbornHash(), target_slice=3, block_lines=8)
    with pytest.raises(LookupError):
        array.line_addresses()


def _block_bases(array):
    return [array.base_phys + k * array.block_bytes for k in range(array.n_lines)]


def _probed_offsets(array):
    """The oracle: each block's first target line by scalar probe
    (``-1`` where the block has none)."""
    offsets = []
    for block_base in _block_bases(array):
        try:
            offsets.append(array._probe(block_base))
        except LookupError:
            offsets.append(-1)
    return offsets


def _assert_fill_matches_probe(array):
    expected = _probed_offsets(array)
    if -1 in expected:
        with pytest.raises(LookupError):
            array.line_address(0)
    else:
        assert array._fill_offsets() == expected


#: Both output bits read line bits 0 and 1 as one parity, so the low
#: bits' matrix is singular: a block reaches only half the slices, and
#: which half flips with address bit 20.
SINGULAR_XOR = ComplexAddressingHash([0b11 << 6, (0b11 << 6) | (1 << 20)])

ORACLE_HASHES = {
    **{f"xor-{n}": haswell_complex_hash(n) for n in (2, 4, 8)},
    **{f"modular-{n}": ModularSliceHash(n) for n in (6, 12, 18, 28)},
    "xor-singular": SINGULAR_XOR,
    # Recovered by polling: the XOR hash plus a constant residual.
    "recovered-xor-8": RecoveredHash(haswell_complex_hash(8), [], [], residual=5),
    "recovered-singular": RecoveredHash(SINGULAR_XOR, [], [], residual=3),
    "scalar-only": ScalarOnlyHash(),
}


@pytest.mark.differential
@pytest.mark.parametrize("name", sorted(ORACLE_HASHES))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    base_line=st.integers(0, 1 << 28),
    n_lines=st.integers(1, 48),
    blocks_per_hash_block=st.sampled_from([1, 2, 4]),
)
def test_closed_form_offsets_match_probe(
    name, base_line, n_lines, blocks_per_hash_block
):
    """For every target slice and block, the hash's closed-form inverse
    picks the line the scalar probe finds first."""
    slice_hash = ORACLE_HASHES[name]
    block_lines = blocks_per_hash_block * slice_hash.n_slices
    for target in range(slice_hash.n_slices):
        array = SliceLocalArray(
            base_line * CACHE_LINE, n_lines, slice_hash, target, block_lines
        )
        if hasattr(slice_hash, "block_offsets"):
            closed = slice_hash.block_offsets(
                array.base_phys, n_lines, block_lines, target
            )
            assert closed.tolist() == _probed_offsets(array)
        _assert_fill_matches_probe(array)


@pytest.mark.differential
@pytest.mark.parametrize(
    "name, block_lines",
    [
        ("xor-8", 12),  # not a power of two: probed
        ("xor-8", 4),  # on the grid, short of a slice per block
        ("xor-singular", 4),  # singular: some blocks have no target line
        ("xor-singular", 12),
        ("recovered-xor-8", 12),
        ("modular-18", 27),  # straddles the 18-line hash blocks: probed
        ("modular-12", 8),  # shorter than a hash block: probed
    ],
)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(base_line=st.integers(0, 1 << 28), n_lines=st.integers(1, 48))
def test_window_off_the_hash_block_matches_probe(name, block_lines, base_line, n_lines):
    slice_hash = ORACLE_HASHES[name]
    for target in range(slice_hash.n_slices):
        _assert_fill_matches_probe(
            SliceLocalArray(
                base_line * CACHE_LINE, n_lines, slice_hash, target, block_lines
            )
        )


@pytest.mark.parametrize(
    "slice_hash, n_lines, block_lines",
    [(haswell_complex_hash(8), 1 << 18, 8), (ModularSliceHash(18), 16384, 72)],
    ids=["xor-2^18x8", "modular-16kx72"],
)
def test_first_use_memory_is_bounded(slice_hash, n_lines, block_lines):
    """Resolving the offsets allocates the offset table, not a
    lines-by-block-lines probe sweep."""
    array = SliceLocalArray(0, n_lines, slice_hash, target_slice=0, block_lines=block_lines)
    tracemalloc.start()
    try:
        array.line_address(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"first line_address peaked at {peak / 2**20:.1f} MiB"
