"""Unit tests for on-disk layout, Dinode and Superblock codecs."""

import pickle
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from repro.fs.layout import Dinode, FileType, FSGeometry, INODE_SIZE
from repro.fs.superblock import Superblock


@pytest.fixture
def geo():
    return FSGeometry()


class TestGeometry:
    def test_derived_sizes(self, geo):
        assert geo.frags_per_block == 8
        assert geo.inodes_per_block == 64
        assert geo.inode_blocks_per_cg == 32

    def test_regions_are_disjoint_and_ordered(self, geo):
        assert geo.superblock_daddr >= geo.frags_per_block
        previous_end = geo.cg_start
        for cg in range(geo.ncg):
            assert geo.cg_base(cg) == previous_end
            assert geo.cg_inode_table(cg) > geo.cg_base(cg)
            assert geo.cg_data_start(cg) > geo.cg_inode_table(cg)
            previous_end = geo.cg_base(cg) + geo.cg_frags
        assert previous_end == geo.total_frags

    def test_inode_addressing(self, geo):
        assert geo.cg_of_inode(0) == 0
        assert geo.cg_of_inode(geo.ipg) == 1
        assert geo.inode_block_daddr(0) == geo.cg_inode_table(0)
        assert (geo.inode_block_daddr(geo.inodes_per_block)
                == geo.cg_inode_table(0) + geo.frags_per_block)
        assert geo.inode_offset_in_block(1) == INODE_SIZE

    def test_daddr_to_cg_roundtrip(self, geo):
        for cg in range(geo.ncg):
            daddr = geo.cg_data_start(cg) + 5
            assert geo.cg_of_daddr(daddr) == cg
            assert geo.data_index(daddr) == 5

    def test_header_daddr_is_not_data(self, geo):
        with pytest.raises(ValueError):
            geo.data_index(geo.cg_base(1))

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            FSGeometry(block_size=8192, frag_size=3000)
        with pytest.raises(ValueError):
            FSGeometry(ncg=0)
        with pytest.raises(ValueError):
            FSGeometry(ipg=100)  # not whole inode blocks

    def test_cached_sizes_leave_identity_to_the_fields(self):
        """Equality, hash, pickling and replace() see the fields only."""
        warm, cold = FSGeometry(ncg=3), FSGeometry(ncg=3)
        sizes = [warm.frags_per_block, warm.inode_blocks_per_cg,
                 warm.cg_data_offset, warm.cg_frags, warm.cg_start,
                 warm.journal_start, warm.total_frags, warm.total_inodes,
                 warm.nindir, warm.max_file_blocks]
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        clone = pickle.loads(pickle.dumps(warm))
        assert clone == warm and hash(clone) == hash(warm)
        assert [clone.frags_per_block, clone.inode_blocks_per_cg,
                clone.cg_data_offset, clone.cg_frags, clone.cg_start,
                clone.journal_start, clone.total_frags, clone.total_inodes,
                clone.nindir, clone.max_file_blocks] == sizes
        # replace() derives fresh sizes, never the source's cached ones
        small = replace(warm, block_size=4096, ipg=64, dfrags_per_cg=2044)
        assert small == FSGeometry(block_size=4096, ipg=64,
                                   dfrags_per_cg=2044, ncg=3)
        assert small.frags_per_block == 4
        assert small.inode_blocks_per_cg == 2
        assert small.cg_frags == 4 + 2 * 4 + 2044
        assert replace(warm, ncg=5).journal_start == (
            warm.cg_start + 5 * warm.cg_frags)
        with pytest.raises(FrozenInstanceError):
            warm.ncg = 4


class TestDinode:
    def test_roundtrip(self):
        din = Dinode(mode=int(FileType.REGULAR) | 0o644, nlink=3, uid=7,
                     gid=8, size=123456, atime=1, mtime=2, ctime=3,
                     direct=[10 * i for i in range(12)], sindirect=999,
                     dindirect=1000, frags_held=42, generation=5, flags=1)
        packed = din.pack()
        assert len(packed) == INODE_SIZE
        assert Dinode.unpack(packed) == din

    def test_zero_inode_is_unallocated(self):
        assert not Dinode.unpack(bytes(INODE_SIZE)).allocated

    def test_ftype(self):
        assert Dinode(mode=int(FileType.DIRECTORY) | 0o700).ftype \
            is FileType.DIRECTORY

    def test_copy_is_independent(self):
        din = Dinode(mode=int(FileType.REGULAR), size=10)
        clone = din.copy()
        clone.size = 20
        assert din.size == 10

    @given(size=st.integers(0, 2**40), nlink=st.integers(0, 65535))
    def test_roundtrip_property(self, size, nlink):
        din = Dinode(mode=int(FileType.REGULAR), nlink=nlink, size=size)
        assert Dinode.unpack(din.pack()) == din


class TestSuperblock:
    def test_roundtrip(self, geo):
        sb = Superblock(geometry=geo, generation=7, clean=False)
        raw = sb.pack(geo.frag_size)
        assert len(raw) == geo.frag_size
        back = Superblock.unpack(raw)
        assert back.geometry == geo
        assert back.generation == 7
        assert back.clean is False

    def test_bad_magic_rejected(self, geo):
        with pytest.raises(ValueError, match="magic"):
            Superblock.unpack(bytes(geo.frag_size))
