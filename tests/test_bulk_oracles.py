"""Oracle properties for the bulk hash and headroom paths.

``slice_of_array`` must agree with the scalar ``slice_of`` element by
element, and the bulk ``CacheDirector.precompute_udata`` must equal
packing the per-target scalar ``headroom_lines_for_slice`` search.
Besides the published Haswell hashes and the 18-slice Skylake
substitute, random GF(2) mask sets stand in for other XOR hashes: each
output bit the parity of an arbitrary subset of address bits above the
line offset, the construction Wei et al. recovered for Sandy Bridge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.hashfn import (
    ComplexAddressingHash,
    ModularSliceHash,
    haswell_complex_hash,
)
from repro.core.cache_director import (
    UDATA_MAX_SLICES,
    CacheDirector,
    headroom_lines_for_slice,
    pack_headrooms,
)
from repro.mem.address import CACHE_LINE

NAMED_HASHES = {
    "haswell-2": haswell_complex_hash(2),
    "haswell-4": haswell_complex_hash(4),
    "haswell-8": haswell_complex_hash(8),
    "skylake-18": ModularSliceHash(18),
}

#: One to three output bits, each over address bits 6..63.
gf2_hashes = st.lists(
    st.integers(1, (1 << 58) - 1).map(lambda m: m << 6), min_size=1, max_size=3
).map(ComplexAddressingHash)

hashes = st.one_of(st.sampled_from(sorted(NAMED_HASHES)).map(NAMED_HASHES.get), gf2_hashes)

#: Addresses anywhere in the 64-bit space, with half the draws above 2^40.
addresses = st.one_of(
    st.integers(0, (1 << 40) - 1), st.integers(1 << 40, (1 << 64) - 1)
)

#: Line-aligned buffers, low enough that base + headroom stays in 64 bits.
buffers = st.one_of(
    st.integers(0, (1 << 34) - 1), st.integers(1 << 34, (1 << 52) - 1)
).map(lambda line: line * CACHE_LINE)


class ScalarOnlyHash:
    """A slice hash without ``slice_of_array`` (the scalar fallback)."""

    def __init__(self, inner):
        self.inner = inner
        self.n_slices = inner.n_slices

    def slice_of(self, phys_address):
        return self.inner.slice_of(phys_address)


def scalar_udata(director, buf_phys):
    """What ``precompute_udata`` packs, one scalar search per target."""
    data_base = buf_phys + director.base_headroom
    offsets = []
    for target in range(min(director.hash.n_slices, UDATA_MAX_SLICES)):
        k = headroom_lines_for_slice(data_base, director.hash, target, director.max_lines)
        offsets.append(0 if k is None else k)
    return pack_headrooms(offsets)


class TestSliceOfArray:
    @settings(max_examples=200)
    @given(h=hashes, addrs=st.lists(addresses, min_size=1, max_size=64))
    def test_matches_scalar(self, h, addrs):
        vector = h.slice_of_array(np.array(addrs, dtype=np.uint64))
        assert vector.dtype == np.uint8
        assert vector.tolist() == [h.slice_of(a) for a in addrs]


class TestBulkPrecompute:
    @settings(max_examples=150)
    @given(
        h=hashes,
        scalar_only=st.booleans(),
        max_lines=st.integers(1, 16),
        base_lines=st.integers(0, 4),
        bufs=st.lists(buffers, max_size=8),
    )
    def test_matches_scalar_search(self, h, scalar_only, max_lines, base_lines, bufs):
        slice_hash = ScalarOnlyHash(h) if scalar_only else h
        director = CacheDirector(
            slice_hash,
            core_to_slice=[0],
            base_headroom=base_lines * CACHE_LINE,
            max_lines=max_lines,
        )
        assert director.precompute_udata(bufs) == [
            scalar_udata(director, b) for b in bufs
        ]

    @pytest.mark.parametrize("scalar_only", [False, True])
    @pytest.mark.parametrize("name", sorted(NAMED_HASHES))
    def test_unreachable_targets_encode_zero(self, name, scalar_only):
        # Fewer candidate lines than slices: some targets are out of
        # reach, the scalar search returns None and the packing holds 0.
        h = NAMED_HASHES[name]
        slice_hash = ScalarOnlyHash(h) if scalar_only else h
        director = CacheDirector(slice_hash, core_to_slice=[0], max_lines=1)
        bufs = [i * 0x1040 for i in range(64)]
        udata = director.precompute_udata(bufs)
        assert udata == [scalar_udata(director, b) for b in bufs]
        data_base = bufs[0] + director.base_headroom
        if h.n_slices > 1:
            target = (h.slice_of(data_base) + 1) % min(h.n_slices, UDATA_MAX_SLICES)
            assert headroom_lines_for_slice(data_base, h, target, 1) is None
            assert (udata[0] >> (4 * target)) & 0xF == 0
