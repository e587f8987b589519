"""SectorStore vs the dict-backed oracle, under random interleavings.

The chunked flat store is a performance substitution, not a behavior
change: any sequence of ``read`` / ``write`` / ``write_partial`` /
``snapshot`` / ``digest`` / ``iter_nonzero`` calls must be observation-
identical to :class:`~tests.disk.dict_store.DictSectorStore`.  A
tracemalloc check also pins the flat store's O(1)-allocations write path
(the dict store allocates one ``bytes`` per sector).
"""

import inspect
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.disk import DiskGeometry, SectorStore
from tests.disk.dict_store import DictSectorStore


SECTOR = 512
#: ops reference the small geometry below; spans stay in range
ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 600),
                  st.integers(1, 5), st.integers(0, 255)),
        st.tuples(st.just("write_partial"), st.integers(0, 600),
                  st.integers(1, 5), st.integers(0, 4)),
        st.tuples(st.just("read"), st.integers(0, 600), st.integers(1, 8)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("digest")),
        st.tuples(st.just("len")),
    ),
    max_size=40,
)


def apply_ops(store, op_list):
    """Run *op_list*; return every observable the sequence produced."""
    observed = []
    for op in op_list:
        kind = op[0]
        if kind == "write":
            _, lbn, nsectors, fill = op
            store.write(lbn, bytes([fill]) * (SECTOR * nsectors))
        elif kind == "write_partial":
            _, lbn, nsectors, applied = op
            store.write_partial(lbn, bytes([7]) * (SECTOR * nsectors),
                                min(applied, nsectors))
        elif kind == "read":
            _, lbn, nsectors = op
            observed.append(store.read(lbn, nsectors))
        elif kind == "snapshot":
            snap = store.snapshot()
            observed.append((snap.digest(), snap.sectors_written, len(snap)))
        elif kind == "digest":
            observed.append(store.digest())
        elif kind == "len":
            observed.append((len(store), store.sectors_written))
    observed.append(store.digest())
    observed.append(list(store.iter_nonzero()))
    observed.append((store.sectors_written, len(store)))
    return observed


class TestRandomInterleavings:
    @settings(max_examples=60, deadline=None)
    @given(op_list=ops)
    def test_flat_matches_oracle(self, op_list):
        geometry = DiskGeometry()
        reference = apply_ops(DictSectorStore(geometry), op_list)
        assert apply_ops(SectorStore(geometry), op_list) == reference


class TestWritePathAllocations:
    def measure(self, store, lbn, payload):
        """Bytes retained by allocations made in *store*'s own module."""
        source = inspect.getsourcefile(type(store))
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        store.write(lbn, payload)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        return sum(stat.size_diff
                   for stat in after.compare_to(before, "filename")
                   if stat.traceback
                   and stat.traceback[0].filename == source)

    def test_flat_write_does_not_copy_per_sector(self):
        """A large write into pre-grown backing must not allocate per
        sector: the flat store slices the payload straight in, while the
        dict store materializes one ``bytes`` object per sector."""
        geometry = DiskGeometry()
        nsectors = 512
        payload = b"\xa5" * (SECTOR * nsectors)

        flat = SectorStore(geometry)
        flat.write(0, payload)  # pre-grow so _ensure is out of the picture
        flat_bytes = self.measure(flat, 0, payload)

        reference = DictSectorStore(geometry)
        reference.write(0, payload)
        dict_bytes = self.measure(reference, 0, payload)

        # the dict store retains ~nsectors fresh sector copies (>= the
        # payload itself); the flat store overwrites in place and retains
        # nothing close to one sector per sector written
        assert dict_bytes >= SECTOR * nsectors
        assert flat_bytes < dict_bytes / 4
