"""CacheSanitizer: fault injection for every violation class, plus the
guarantee that sanitizing never perturbs simulation results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import sanitizer as sanitizer_module
from repro.analysis.sanitizer import (
    CacheSanitizer,
    SanitizerError,
    default_sanitizer,
    resolve_sanitizer,
    sanitizer_enabled,
)
from repro.cachesim.cache import INVALID_TAG, INVALID_WAY
from repro.cachesim.ddio import DdioEngine
from repro.cachesim.hashfn import haswell_complex_hash
from repro.cachesim.hierarchy import CacheHierarchy, LatencySpec
from repro.cachesim.interconnect import RingInterconnect
from repro.cachesim.llc import SlicedLLC
from repro.dpdk.mempool import Mempool
from repro.dpdk.nic import Nic
from repro.mem.address import CACHE_LINE, PAGE_1G
from repro.mem.allocator import ContiguousAllocator
from repro.mem.hugepage import PhysicalAddressSpace


@pytest.fixture
def allocator():
    space = PhysicalAddressSpace(seed=0)
    return ContiguousAllocator(space.mmap_hugepage(PAGE_1G))


def make_hierarchy(sanitizer=None, llc_ways=8):
    llc = SlicedLLC(
        slice_hash=haswell_complex_hash(8),
        interconnect=RingInterconnect(),
        n_sets=64,
        n_ways=llc_ways,
        base_latency=34,
    )
    return CacheHierarchy(
        n_cores=8,
        llc=llc,
        l1_sets=4,
        l1_ways=2,
        l2_sets=16,
        l2_ways=4,
        latency=LatencySpec(),
        inclusive=True,
        sanitizer=sanitizer,
    )


def make_pool(allocator, sanitizer, n=8, data_room=2048):
    return Mempool(
        "san-test", allocator, n_mbufs=n, data_room=data_room, sanitizer=sanitizer
    )


def raised_kind(excinfo):
    return excinfo.value.kind


# ----------------------------------------------------------------------
# Mbuf lifecycle faults
# ----------------------------------------------------------------------

class TestMbufFaults:
    def test_double_free(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        mbuf = pool.alloc()
        pool.free(mbuf)
        with pytest.raises(SanitizerError) as excinfo:
            pool.free(mbuf)
        assert raised_kind(excinfo) == "double-free"
        assert excinfo.value.details["index"] == mbuf.index

    def test_use_after_free_append(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        mbuf = pool.alloc()
        pool.free(mbuf)
        with pytest.raises(SanitizerError) as excinfo:
            mbuf.append(64)
        assert raised_kind(excinfo) == "use-after-free"
        assert excinfo.value.details["op"] == "append"

    def test_use_after_free_set_headroom(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        mbuf = pool.alloc()
        pool.free(mbuf)
        with pytest.raises(SanitizerError) as excinfo:
            mbuf.set_headroom(mbuf.default_headroom)
        assert raised_kind(excinfo) == "use-after-free"

    def test_backtrace_records_lifecycle(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        mbuf = pool.alloc()
        pool.free(mbuf)
        with pytest.raises(SanitizerError) as excinfo:
            pool.free(mbuf)
        ops = [op for _, op, _ in excinfo.value.backtrace]
        assert ops[:2] == ["register-pool", "alloc"]
        assert "free" in ops

    def test_clean_lifecycle_passes(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        for _ in range(3):
            mbufs = [pool.alloc() for _ in range(pool.capacity)]
            for mbuf in mbufs:
                mbuf.append(128)
            for mbuf in mbufs:
                pool.free(mbuf)


# ----------------------------------------------------------------------
# DMA span faults
# ----------------------------------------------------------------------

class TestDmaFaults:
    def test_span_overrun(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san, data_room=1024)
        hierarchy = make_hierarchy(sanitizer=san)
        ddio = DdioEngine(hierarchy)
        mbuf = pool.alloc()
        with pytest.raises(SanitizerError) as excinfo:
            ddio.dma_write(mbuf.buf_phys, pool.element_size + CACHE_LINE)
        assert raised_kind(excinfo) == "dma-span-overrun"
        assert excinfo.value.details["element"] == mbuf.index

    def test_write_into_mbuf_header(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        hierarchy = make_hierarchy(sanitizer=san)
        ddio = DdioEngine(hierarchy)
        mbuf = pool.alloc()
        with pytest.raises(SanitizerError) as excinfo:
            ddio.dma_write(mbuf.base_phys, CACHE_LINE)
        assert raised_kind(excinfo) == "dma-span-overrun"

    def test_write_into_free_element(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        hierarchy = make_hierarchy(sanitizer=san)
        ddio = DdioEngine(hierarchy)
        mbuf = pool.alloc()
        target = mbuf.buf_phys
        pool.free(mbuf)
        with pytest.raises(SanitizerError) as excinfo:
            ddio.dma_write(target, CACHE_LINE)
        assert raised_kind(excinfo) == "dma-into-free"

    def test_legit_dma_passes(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        hierarchy = make_hierarchy(sanitizer=san)
        ddio = DdioEngine(hierarchy)
        mbuf = pool.alloc()
        assert ddio.dma_write(mbuf.buf_phys, 1024) == 16
        assert ddio.dma_read(mbuf.buf_phys, 1024) == 16

    def test_new_pool_supersedes_stale_overlapping_pool(self):
        """Back-to-back experiments rebuild their pools at the same
        physical base; spans must check against the newest owner, not a
        stale pool whose shadow set says everything is free."""
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        ddio = DdioEngine(hierarchy)
        old_space = PhysicalAddressSpace(seed=0)
        old_alloc = ContiguousAllocator(old_space.mmap_hugepage(PAGE_1G))
        old_pool = make_pool(old_alloc, san)
        stale = old_pool.alloc()
        old_pool.free(stale)
        # Same seed → same physical layout, like the next experiment.
        new_space = PhysicalAddressSpace(seed=0)
        new_alloc = ContiguousAllocator(new_space.mmap_hugepage(PAGE_1G))
        new_pool = make_pool(new_alloc, san)
        mbuf = new_pool.alloc()
        assert ddio.dma_write(mbuf.buf_phys, CACHE_LINE) == 1

    def test_pools_are_scoped_to_their_machine(self):
        """Two machines share one sanitizer and lay out identical
        physical memory.  Machine B's pool must not stand in for A's
        when A's NIC DMAs into an mbuf A has allocated."""
        san = CacheSanitizer()
        machines = []
        for _ in range(2):
            hierarchy = make_hierarchy(sanitizer=san)
            alloc = ContiguousAllocator(
                PhysicalAddressSpace(seed=0).mmap_hugepage(PAGE_1G)
            )
            pool = make_pool(alloc, san)
            ddio = DdioEngine(hierarchy)
            Nic(n_queues=1, mempool=pool, ddio=ddio, allocator=alloc)
            machines.append((pool, ddio))
        (pool_a, ddio_a), (pool_b, _) = machines
        assert pool_a.base_phys == pool_b.base_phys
        mbuf = pool_a.alloc()
        assert ddio_a.dma_write(mbuf.buf_phys, CACHE_LINE) == 1
        # A's own free elements are still guarded.
        pool_a.free(mbuf)
        with pytest.raises(SanitizerError) as excinfo:
            ddio_a.dma_write(mbuf.buf_phys, CACHE_LINE)
        assert raised_kind(excinfo) == "dma-into-free"
        assert excinfo.value.details["element"] == mbuf.index

    def test_global_sanitizer_checks_only_claimed_pools(self, monkeypatch):
        """Under RF_SANITIZE one sanitizer serves every machine in the
        process.  A pool no NIC has claimed (the rx-strategy ablation's)
        must not be checked against another machine's DMA, such as a
        KVS slab at the same physical address."""
        monkeypatch.setenv("RF_SANITIZE", "1")
        monkeypatch.setattr(sanitizer_module, "_DEFAULT", None)
        san = default_sanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        alloc = ContiguousAllocator(
            PhysicalAddressSpace(seed=0).mmap_hugepage(PAGE_1G)
        )
        pool = make_pool(alloc, san)
        ddio = DdioEngine(hierarchy)
        header = pool.mbufs[0].base_phys
        assert ddio.dma_write(header, CACHE_LINE) == 1
        # Once a NIC claims the pool, its own machine's DMA is checked.
        Nic(n_queues=1, mempool=pool, ddio=ddio, allocator=alloc)
        with pytest.raises(SanitizerError) as excinfo:
            ddio.dma_write(header, CACHE_LINE)
        assert raised_kind(excinfo) == "dma-span-overrun"

    def test_dma_outside_pools_unchecked(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        hierarchy = make_hierarchy(sanitizer=san)
        ddio = DdioEngine(hierarchy)
        end = pool.base_phys + pool.element_size * pool.capacity
        # Descriptor rings / KVS slabs live outside pool memory: any
        # span is fine there.
        assert ddio.dma_write(end + PAGE_1G // 2, 4096) == 64


# ----------------------------------------------------------------------
# Hierarchy shadow-state faults (injected by direct corruption)
# ----------------------------------------------------------------------

class TestScanFaults:
    def test_double_residency_wrong_slice(self):
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        llc = hierarchy.llc
        line = 0
        wrong = (llc.slice_of(line) + 1) % llc.n_slices
        llc.slices[wrong].insert(line)
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "double-residency"
        assert excinfo.value.details["home_slice"] == llc.slice_of(line)

    def test_double_residency_two_slices(self):
        san = CacheSanitizer(strict_cat=False)
        hierarchy = make_hierarchy(sanitizer=san)
        llc = hierarchy.llc
        line = 0
        home = llc.slice_of(line)
        llc.slices[home].insert(line)
        # Second residency in a slice whose scan window comes later;
        # the full-scan cross-slice pass must still catch the pair even
        # if the per-set home check flags the foreign copy first.
        other = (home + 1) % llc.n_slices
        llc.slices[other].insert(line)
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "double-residency"

    def test_double_count_shadow_map_drift(self):
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        llc = hierarchy.llc
        line = 0
        home = llc.slice_of(line)
        slice_cache = llc.slices[home]
        slice_cache.insert(line)
        # The line -> way map claims a second way also holds a line.
        way = slice_cache._where[line]
        slice_cache._where[line + (1 << 40)] = (way + 1) % llc.n_ways
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "double-count"

    def test_double_count_orphan_map_entry_on_rotating_scan(self):
        # A map entry with no slot behind it, in another set than the
        # one-set scan windows that reach its slice: the slice's
        # valid-slot count exposes it on the first window in the slice,
        # and no earlier window reports anything.
        san = CacheSanitizer(scan_sets=1)
        hierarchy = make_hierarchy(sanitizer=san)
        llc = hierarchy.llc
        line = 0
        home = llc.slice_of(line)
        slice_cache = llc.slices[home]
        slice_cache.insert(line)
        slice_cache._where[line + 5 * CACHE_LINE + (1 << 40)] = 0
        for _ in range(home * llc.n_sets):
            san.scan(hierarchy)
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy)
        assert raised_kind(excinfo) == "double-count"
        assert excinfo.value.details["slice"] == home
        assert excinfo.value.details["mapped_lines"] == 2
        assert excinfo.value.details["valid_ways"] == 1

    def test_double_count_tag_in_wrong_set(self):
        # The line's tag sits in the next set at the way the map names:
        # counts agree and the map leads back to the way, but a lookup
        # computes the line's own set, so only the set check flags it.
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        llc = hierarchy.llc
        line = 0
        slice_cache = llc.slices[llc.slice_of(line)]
        slice_cache.insert(line)
        set_index = (line >> 6) & (llc.n_sets - 1)
        way = slice_cache._where[line]
        slot = set_index * llc.n_ways + way
        moved = slot + llc.n_ways
        slice_cache._tags[moved] = slice_cache._tags[slot]
        slice_cache._dirty[moved] = slice_cache._dirty[slot]
        slice_cache._tags[slot] = INVALID_TAG
        slice_cache._dirty[slot] = INVALID_WAY
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "double-count"
        assert excinfo.value.details["set"] == set_index + 1
        assert excinfo.value.details["line"] == line

    def test_double_count_shadow_way_outside_set(self):
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        llc = hierarchy.llc
        line = 0
        home = llc.slice_of(line)
        slice_cache = llc.slices[home]
        slice_cache.insert(line)
        set_index = (line >> 6) & (llc.n_sets - 1)
        # A way past the set's end would alias the next set's first
        # slot in the flat tag array; plant the line there too so only
        # the bounds check can flag this set.
        slice_cache._where[line] = llc.n_ways
        slice_cache._tags[(set_index + 1) * llc.n_ways] = line
        slice_cache._dirty[(set_index + 1) * llc.n_ways] = 0
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "double-count"
        assert excinfo.value.details["set"] == set_index
        assert excinfo.value.details["way"] == llc.n_ways

    def test_double_count_tag_mismatch(self):
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        llc = hierarchy.llc
        line = 0
        home = llc.slice_of(line)
        slice_cache = llc.slices[home]
        slice_cache.insert(line)
        set_index = (line >> 6) & (llc.n_sets - 1)
        way = slice_cache._where[line]
        other_way = (way + 1) % llc.n_ways
        # Tag array holds the line in a different way than the map says.
        # The dirty byte moves with the tag, so both slots stay
        # self-consistent and the valid-way count still matches: only
        # the shadow-map-vs-tag comparison can flag this set.
        slot = set_index * llc.n_ways + way
        other_slot = set_index * llc.n_ways + other_way
        slice_cache._tags[other_slot] = slice_cache._tags[slot]
        slice_cache._dirty[other_slot] = slice_cache._dirty[slot]
        slice_cache._tags[slot] = INVALID_TAG
        slice_cache._dirty[slot] = INVALID_WAY
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "double-count"
        assert excinfo.value.details["line"] == line
        assert excinfo.value.details["way"] == way

    @pytest.mark.parametrize("valid_tag", [True, False])
    def test_double_count_validity_encodings_disagree(self, valid_tag):
        # One corrupted dirty byte: a resident line's slot marked
        # invalid (a later fill would overwrite it), or a free slot
        # marked clean.
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        llc = hierarchy.llc
        line = 0
        slice_cache = llc.slices[llc.slice_of(line)]
        slice_cache.insert(line)
        set_index = (line >> 6) & (llc.n_sets - 1)
        way = slice_cache._where[line]
        if not valid_tag:
            way = (way + 1) % llc.n_ways
        slot = set_index * llc.n_ways + way
        slice_cache._dirty[slot] = INVALID_WAY if valid_tag else 0
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "double-count"
        assert excinfo.value.details["set"] == set_index
        assert excinfo.value.details["way"] == way

    def test_cat_violation_scan(self):
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        llc = hierarchy.llc
        # CLOS 0 → ways {0,1}; DDIO ways are 6,7; ways 2..5 are illegal.
        llc.cat.define_clos(0, 0b11)
        for core in range(8):
            llc.cat.assign_core(core, 0)
        line = 0
        home = llc.slice_of(line)
        llc.slices[home].insert(line, allowed_ways=(3,))
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "cat-violation"
        assert excinfo.value.details["way"] == 3

    def test_check_fill_way_flags_mask_escape(self):
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        with pytest.raises(SanitizerError) as excinfo:
            san.check_fill_way(
                hierarchy.llc, 0, 0, way=5, allowed=(0, 1), io=False
            )
        assert raised_kind(excinfo) == "cat-violation"
        assert "CAT" in str(excinfo.value)

    def test_pool_corruption(self, allocator):
        san = CacheSanitizer()
        pool = make_pool(allocator, san)
        hierarchy = make_hierarchy(sanitizer=san)
        pool._san_free.pop()
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "pool-corruption"

    @staticmethod
    def clear_core_valid_bit(hierarchy, line, core):
        llc = hierarchy.llc
        slice_cache = llc.slices[llc.slice_of(line)]
        set_i = (line // CACHE_LINE) % slice_cache.n_sets
        slot = set_i * slice_cache.n_ways + slice_cache.way_of(line)
        assert slice_cache._core_valid[slot] >> core & 1
        slice_cache._core_valid[slot] &= ~(1 << core)

    def test_core_valid_bit_cleared(self):
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        line = 0x4000
        hierarchy.read(1, line)
        hierarchy.read(3, line)
        san.scan(hierarchy, full=True)
        # Core 1 keeps its bit; core 3's copy loses its own.
        self.clear_core_valid_bit(hierarchy, line, 3)
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "core-valid"
        details = excinfo.value.details
        assert (details["line"], details["core"], details["in_llc"]) == (line, 3, True)
        assert details["bits"] == 1 << 1

    def test_core_valid_bit_cleared_on_rotating_scan(self):
        # One private set per scan: the window reaches core 2's L1 set
        # of the line (position 2 * l1_sets + set) on that scan and no
        # earlier.
        san = CacheSanitizer(scan_sets=1)
        hierarchy = make_hierarchy(sanitizer=san)
        line = 0x4040
        hierarchy.read(2, line)
        self.clear_core_valid_bit(hierarchy, line, 2)
        l1 = hierarchy.l1s[2]
        reach = 2 * l1.n_sets + (line // CACHE_LINE) % l1.n_sets
        for _ in range(reach):
            san.scan(hierarchy)
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy)
        assert raised_kind(excinfo) == "core-valid"
        assert excinfo.value.details["level"] == "l1"

    def test_private_line_missing_from_inclusive_llc(self):
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        line = 0x8000
        hierarchy.read(0, line)
        hierarchy.llc.invalidate(line)
        with pytest.raises(SanitizerError) as excinfo:
            san.scan(hierarchy, full=True)
        assert raised_kind(excinfo) == "core-valid"
        assert excinfo.value.details["in_llc"] is False

    def test_clean_traffic_full_scan_passes(self):
        san = CacheSanitizer()
        hierarchy = make_hierarchy(sanitizer=san)
        for i in range(4096):
            hierarchy.access_line(i % 8, i * CACHE_LINE, write=(i % 3 == 0))
        san.scan(hierarchy, full=True)

    def test_ticks_trigger_rotating_scans(self):
        san = CacheSanitizer(interval=64, scan_sets=32)
        hierarchy = make_hierarchy(sanitizer=san)
        before = san.scans
        san.tick(hierarchy, 100)
        san.tick(hierarchy, 100)
        assert san.scans >= before + 2


# ----------------------------------------------------------------------
# Activation plumbing + determinism guarantee
# ----------------------------------------------------------------------

class TestActivation:
    def test_resolve_explicit_object_wins(self):
        san = CacheSanitizer()
        assert resolve_sanitizer(False, san) is san

    def test_resolve_true_builds_private_instance(self):
        a = resolve_sanitizer(True, None)
        b = resolve_sanitizer(True, None)
        assert a is not None and b is not None and a is not b

    def test_resolve_false_forces_off(self):
        assert resolve_sanitizer(False, None) is None

    def test_env_gate(self, monkeypatch):
        monkeypatch.delenv("RF_SANITIZE", raising=False)
        assert not sanitizer_enabled()
        assert resolve_sanitizer(None, None) is None
        monkeypatch.setenv("RF_SANITIZE", "1")
        assert sanitizer_enabled()

    def test_hierarchy_kwarg(self):
        hierarchy = make_hierarchy()
        assert hierarchy.sanitizer is None
        sanitized = CacheHierarchy(
            n_cores=2,
            llc=SlicedLLC(
                slice_hash=haswell_complex_hash(8),
                interconnect=RingInterconnect(),
                n_sets=64,
                n_ways=8,
            ),
            l1_sets=4,
            l1_ways=2,
            l2_sets=16,
            l2_ways=4,
            sanitize=True,
        )
        assert sanitized.sanitizer is not None
        assert sanitized.llc.sanitizer is sanitized.sanitizer


class TestDeterminism:
    def test_sanitized_results_bit_identical(self):
        """RF_SANITIZE must never perturb experiment output (the same
        guarantee CI asserts on the full matrix via golden compare)."""
        script = (
            "import json\n"
            "from repro.experiments.fig05_access_time import (\n"
            "    profile_to_dict, run_fig05)\n"
            "print(json.dumps(profile_to_dict(run_fig05(seed=3)), sort_keys=True))\n"
        )
        env = {
            "PYTHONPATH": str(Path(__file__).parent.parent / "src"),
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONHASHSEED": "0",
        }
        plain = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        sanitized = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True,
            env={**env, "RF_SANITIZE": "1", "RF_SANITIZE_INTERVAL": "256"},
            check=True,
        )
        assert plain.stdout == sanitized.stdout
