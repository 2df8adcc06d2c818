"""Unit tests for polling-based hash reverse engineering (§2.1)."""

import pytest

from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
from repro.cachesim.hashfn import haswell_complex_hash
from repro.core.reverse_engineering import (
    PollingOracle,
    RecoveredHash,
    recover_complex_hash,
    verify_recovered_hash,
)
from repro.mem.address import CACHE_LINE, PAGE_1G
from repro.mem.hugepage import PhysicalAddressSpace


@pytest.fixture(scope="module")
def rig():
    hierarchy = build_hierarchy(HASWELL_E5_2667V3)
    space = PhysicalAddressSpace(seed=0)
    buffer = space.mmap_hugepage(PAGE_1G)
    return hierarchy, buffer


class TestPollingOracle:
    def test_identifies_correct_slice(self, rig):
        hierarchy, buffer = rig
        oracle = PollingOracle(hierarchy, buffer, polls=4)
        truth = hierarchy.llc.hash
        for offset in (0, 64, 4096, 1 << 20):
            address = buffer.phys + offset
            assert oracle(address) == truth.slice_of(address)

    def test_rejects_foreign_addresses(self, rig):
        hierarchy, buffer = rig
        oracle = PollingOracle(hierarchy, buffer)
        with pytest.raises(ValueError):
            oracle(buffer.phys - CACHE_LINE)

    def test_poll_count_validated(self, rig):
        hierarchy, buffer = rig
        with pytest.raises(ValueError):
            PollingOracle(hierarchy, buffer, polls=0)

    def test_counts_polled_addresses(self, rig):
        hierarchy, buffer = rig
        oracle = PollingOracle(hierarchy, buffer)
        oracle(buffer.phys)
        oracle(buffer.phys + 64)
        assert oracle.addresses_polled == 2


class TestHashRecovery:
    def test_recovers_ground_truth_with_direct_oracle(self):
        truth = haswell_complex_hash(8)
        recovered = recover_complex_hash(
            truth.slice_of,
            n_slices=8,
            base_addresses=[0x0, 0x12340, 0x777_0000],
            address_bits=range(6, 35),
        )
        assert list(recovered.hash.masks) == list(truth.masks)
        assert recovered.residual == 0
        assert not recovered.ambiguous_bits

    def test_ambiguous_bits_reported(self):
        truth = haswell_complex_hash(8)
        recovered = recover_complex_hash(
            truth.slice_of,
            n_slices=8,
            base_addresses=[0x1000],
            address_bits=range(6, 35),
            max_address=1 << 30,  # 1 GB page: bits 30+ unreachable
        )
        assert recovered.ambiguous_bits == [30, 31, 32, 33, 34]

    def test_residual_learned_for_offset_region(self):
        """Recovery inside a high region: bits above the window appear
        as a constant XOR, captured by the residual."""
        truth = haswell_complex_hash(8)
        base = 5 << 30  # 5 GB: bits 30 and 32 set
        recovered = recover_complex_hash(
            truth.slice_of,
            n_slices=8,
            base_addresses=[base + 0x40, base + 0x55540],
            address_bits=range(6, 30),
            max_address=base + (1 << 30),
        )
        sweep = [base + i * 64 * 1024 + 0x140 for i in range(64)]
        assert verify_recovered_hash(recovered, truth.slice_of, sweep) == 1.0

    def test_inconsistent_oracle_detected(self):
        """A non-XOR-linear mapping must be reported, not silently
        mis-recovered."""

        def nonlinear(address: int) -> int:
            # Popcount is additive, not XOR-linear: the contribution of
            # a flipped bit depends on the base value.
            return bin(address >> 6).count("1") % 8

        with pytest.raises(ValueError):
            recover_complex_hash(
                nonlinear,
                n_slices=8,
                base_addresses=[0, 0x5000, 0x9980],
                address_bits=range(6, 20),
            )

    def test_requires_power_of_two_slices(self):
        with pytest.raises(ValueError):
            recover_complex_hash(lambda a: 0, n_slices=6, base_addresses=[0])

    def test_requires_bases(self):
        with pytest.raises(ValueError):
            recover_complex_hash(lambda a: 0, n_slices=8, base_addresses=[])

    def test_verify_empty_sweep_rejected(self):
        truth = haswell_complex_hash(8)
        recovered = recover_complex_hash(
            truth.slice_of, n_slices=8, base_addresses=[0], address_bits=range(6, 20)
        )
        with pytest.raises(ValueError):
            verify_recovered_hash(recovered, truth.slice_of, [])


class TestEndToEndPollingRecovery:
    def test_recover_via_counters(self, rig):
        """The full §2.1 pipeline: counters only, no hash knowledge."""
        hierarchy, buffer = rig
        oracle = PollingOracle(hierarchy, buffer, polls=2)
        recovered = recover_complex_hash(
            oracle,
            n_slices=8,
            base_addresses=[buffer.phys + 0x40, buffer.phys + 0x100000],
            address_bits=range(6, 30),
            max_address=buffer.phys + buffer.size,
        )
        truth = hierarchy.llc.hash
        window = (1 << 30) - 1
        assert [m & window for m in truth.masks] == list(recovered.hash.masks)
        sweep = [buffer.phys + i * 12345 * CACHE_LINE for i in range(32)]
        assert verify_recovered_hash(recovered, oracle, sweep) == 1.0


class TestRecoveredHashDeployment:
    """The full real-hardware flow: recover by polling, then allocate
    through the recovered predictor — no ground-truth shortcut."""

    def test_full_hash_recovered_with_multi_page_oracle(self):
        from repro.cachesim.machines import HASWELL_E5_2667V3
        from repro.core.slice_aware import SliceAwareContext

        context = SliceAwareContext.with_recovered_hash(HASWELL_E5_2667V3)
        truth = HASWELL_E5_2667V3.hash_factory()
        recovered = context.hash  # placement runs on the recovered hash
        assert isinstance(recovered, RecoveredHash)
        assert list(recovered.hash.masks) == list(truth.masks)
        assert recovered.residual == 0
        assert recovered.ambiguous_bits == []

    def test_allocations_match_hardware_mapping(self):
        from repro.cachesim.machines import HASWELL_E5_2667V3
        from repro.core.slice_aware import SliceAwareContext

        context = SliceAwareContext.with_recovered_hash(HASWELL_E5_2667V3)
        truth = HASWELL_E5_2667V3.hash_factory()
        buf = context.allocate_slice_aware(128 * 64, core=5)
        for i in range(buf.n_lines):
            assert truth.slice_of(buf.line_of(i)) == 5
        # And the hierarchy caches them where the predictor promised.
        for i in range(8):
            context.hierarchy.read(5, buf.line_of(i))
            assert context.hierarchy.llc.slices[5].contains(buf.line_of(i))

    def test_rejects_non_power_of_two_machines(self):
        from repro.cachesim.machines import SKYLAKE_GOLD_6134
        from repro.core.slice_aware import SliceAwareContext

        with pytest.raises(ValueError):
            SliceAwareContext.with_recovered_hash(SKYLAKE_GOLD_6134)


class TestMultiPageOracle:
    def test_owns_across_pages(self):
        from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
        from repro.core.reverse_engineering import MultiPageOracle
        from repro.mem.hugepage import PhysicalAddressSpace
        from repro.mem.address import PAGE_1G

        hierarchy = build_hierarchy(HASWELL_E5_2667V3)
        space = PhysicalAddressSpace(seed=None)
        pages = [space.mmap_hugepage(PAGE_1G) for _ in range(2)]
        oracle = MultiPageOracle(hierarchy, pages)
        assert oracle.owns(pages[0].phys)
        assert oracle.owns(pages[1].phys + pages[1].size - 64)
        assert not oracle.owns(pages[1].phys + pages[1].size)

    def test_polls_correct_slice(self):
        from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
        from repro.core.reverse_engineering import MultiPageOracle
        from repro.mem.hugepage import PhysicalAddressSpace
        from repro.mem.address import PAGE_1G

        hierarchy = build_hierarchy(HASWELL_E5_2667V3)
        space = PhysicalAddressSpace(seed=None)
        pages = [space.mmap_hugepage(PAGE_1G)]
        oracle = MultiPageOracle(hierarchy, pages)
        truth = hierarchy.llc.hash
        for offset in (0, 0x5000, 0x100040):
            address = pages[0].phys + offset
            assert oracle(address) == truth.slice_of(address)

    def test_rejects_foreign_address(self):
        from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
        from repro.core.reverse_engineering import MultiPageOracle
        from repro.mem.hugepage import PhysicalAddressSpace
        from repro.mem.address import PAGE_1G

        hierarchy = build_hierarchy(HASWELL_E5_2667V3)
        space = PhysicalAddressSpace(seed=None)
        oracle = MultiPageOracle(hierarchy, [space.mmap_hugepage(PAGE_1G)])
        with pytest.raises(ValueError):
            oracle(0x40)

    def test_requires_buffers(self):
        from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
        from repro.core.reverse_engineering import MultiPageOracle

        with pytest.raises(ValueError):
            MultiPageOracle(build_hierarchy(HASWELL_E5_2667V3), [])
