"""Unit tests for the sector store and on-board prefetch cache.

Every store test runs against the simulator's store and the dict-backed
oracle (``tests/disk/dict_store.py``): the suite IS the conformance
contract both must satisfy identically.
"""

import pytest
from hypothesis import given, strategies as st

from repro.disk import DiskGeometry, SectorStore
from repro.disk.cache import PrefetchCache
from tests.disk.dict_store import DictSectorStore


def make_store(variant: str, geometry=None):
    geometry = geometry or DiskGeometry()
    return (DictSectorStore if variant == "dict" else SectorStore)(geometry)


STORE_VARIANTS = ["dict", "flat"]


@pytest.fixture(params=STORE_VARIANTS)
def store(request):
    return make_store(request.param)


class TestSectorStore:
    def test_holes_read_as_zeros(self, store):
        assert store.read(100) == bytes(512)

    def test_write_read_roundtrip(self, store):
        payload = bytes(range(256)) * 2
        store.write(7, payload)
        assert store.read(7) == payload

    def test_multisector_roundtrip(self, store):
        payload = b"\xab" * (512 * 3)
        store.write(10, payload)
        assert store.read(10, 3) == payload
        assert store.read(11) == b"\xab" * 512

    def test_unaligned_write_rejected(self, store):
        with pytest.raises(ValueError):
            store.write(0, b"short")

    def test_out_of_range_rejected(self, store):
        with pytest.raises(ValueError):
            store.read(store.geometry.total_sectors, 1)
        with pytest.raises(ValueError):
            store.read(0, 0)

    def test_partial_write_applies_prefix_only(self, store):
        data = b"\x01" * 512 + b"\x02" * 512 + b"\x03" * 512
        store.write_partial(50, data, 2)
        assert store.read(50) == b"\x01" * 512
        assert store.read(51) == b"\x02" * 512
        assert store.read(52) == bytes(512)

    def test_snapshot_is_independent(self, store):
        store.write(0, b"\x11" * 512)
        snap = store.snapshot()
        store.write(0, b"\x22" * 512)
        assert snap.read(0) == b"\x11" * 512
        assert store.read(0) == b"\x22" * 512

    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.binary(min_size=512, max_size=512)),
                    max_size=20))
    def test_last_write_wins(self, writes):
        for variant in STORE_VARIANTS:
            store = make_store(variant)
            expected = {}
            for lbn, data in writes:
                store.write(lbn, data)
                expected[lbn] = data
            for lbn, data in expected.items():
                assert store.read(lbn) == data


class TestStoreConformance:
    """Both stores must report identical instrumentation, not just bytes."""

    def drive(self, store):
        store.write(3, b"\x10" * 512)
        store.write(3, b"\x11" * 512)          # overwrite: counts again
        store.write(100, b"\x22" * (512 * 4))  # multi-sector
        store.write_partial(200, b"\x33" * (512 * 3), 2)
        store.write_partial(300, b"\x44" * 512, 0)  # nothing lands
        store.write(400, bytes(512))           # explicit zeros
        return store

    def test_counters_identical_across_stores(self):
        stores = [self.drive(make_store(v)) for v in STORE_VARIANTS]
        written = {s.sectors_written for s in stores}
        lengths = {len(s) for s in stores}
        digests = {s.digest() for s in stores}
        assert written == {1 + 1 + 4 + 2 + 1}
        assert lengths == {1 + 4 + 2 + 1}  # distinct sectors ever written
        assert digests and len(digests) == 1

    def test_snapshot_inherits_counters(self):
        for variant in STORE_VARIANTS:
            store = self.drive(make_store(variant))
            snap = store.snapshot()
            assert snap.sectors_written == store.sectors_written
            assert len(snap) == len(store)
            assert snap.digest() == store.digest()

    def test_load_from_preserves_counter(self):
        for variant in STORE_VARIANTS:
            source = self.drive(make_store(variant))
            store = make_store(variant)
            store.write(7, b"\x55" * 512)
            before = store.sectors_written
            store.load_from(source)
            assert store.sectors_written == before
            assert store.digest() == source.digest()

    def test_iter_nonzero_identical(self):
        rows = [list(self.drive(make_store(v)).iter_nonzero())
                for v in STORE_VARIANTS]
        assert rows[0] == rows[1]
        assert all(lbn != 400 for lbn, _ in rows[0])  # zeros canonicalized


class TestPrefetchCache:
    def test_miss_then_hit_after_insert(self):
        cache = PrefetchCache(segments=2, prefetch_sectors=8)
        assert not cache.lookup(100, 4)
        cache.insert_after_read(100, 4)
        assert cache.lookup(100, 4)

    def test_prefetch_extends_coverage(self):
        cache = PrefetchCache(segments=2, prefetch_sectors=8)
        cache.insert_after_read(100, 4)
        assert cache.lookup(104, 8)       # the prefetched run
        assert not cache.lookup(104, 9)   # beyond it

    def test_sequential_reads_extend_segment(self):
        cache = PrefetchCache(segments=1, prefetch_sectors=4)
        cache.insert_after_read(0, 4)
        cache.insert_after_read(4, 4)
        assert cache.segments == [(0, 12)]

    def test_lru_eviction(self):
        cache = PrefetchCache(segments=2, prefetch_sectors=0)
        cache.insert_after_read(0, 4)
        cache.insert_after_read(100, 4)
        cache.insert_after_read(200, 4)   # evicts the (0,4) segment
        assert not cache.lookup(0, 4)
        assert cache.lookup(100, 4)
        assert cache.lookup(200, 4)

    def test_write_invalidates_overlap(self):
        cache = PrefetchCache(segments=2, prefetch_sectors=0)
        cache.insert_after_read(10, 10)
        cache.invalidate(15, 1)
        assert not cache.lookup(10, 4)

    def test_write_elsewhere_keeps_segment(self):
        cache = PrefetchCache(segments=2, prefetch_sectors=0)
        cache.insert_after_read(10, 10)
        cache.invalidate(50, 4)
        assert cache.lookup(10, 10)

    def test_zero_segments_never_hits(self):
        cache = PrefetchCache(segments=0)
        cache.insert_after_read(0, 4)
        assert not cache.lookup(0, 1)

    def test_prefetch_clipped_at_disk_end(self):
        cache = PrefetchCache(segments=1, prefetch_sectors=100, total_sectors=110)
        cache.insert_after_read(100, 5)
        assert cache.segments == [(100, 110)]
