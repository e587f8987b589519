"""fsck unit tests: clean images pass; synthetic damage is detected."""

import struct

import pytest

from repro.fs.layout import Dinode, FileType
from repro.integrity import fsck
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user


def build_populated_machine(scheme="noorder"):
    m = make_machine(scheme)

    def setup():
        yield from m.fs.mkdir("/docs")
        yield from m.fs.write_file("/docs/a.txt", b"alpha" * 100)
        yield from m.fs.write_file("/docs/b.txt", b"beta" * 3000)
        yield from m.fs.write_file("/top", b"top")
        yield from m.fs.link("/top", "/docs/top-link")
        yield from m.fs.sync()

    run_user(m, setup())
    return m


def frag_bytes(m, daddr, frags=8):
    spf = m.fs.geometry.frag_size // 512
    return m.disk.storage.read(daddr * spf, frags * spf)


def poke(m, daddr, offset, data):
    spf = m.fs.geometry.frag_size // 512
    base = daddr * spf
    sector, within = divmod(offset, 512)
    raw = bytearray(m.disk.storage.read(base + sector, 1))
    raw[within:within + len(data)] = data
    m.disk.storage.write(base + sector, bytes(raw))


class TestCleanImages:
    def test_fresh_fs_is_clean(self):
        m = make_machine("noorder")
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean, report.errors
        assert not report.warnings, report.warnings

    def test_synced_populated_fs_is_clean(self):
        m = build_populated_machine()
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean, report.errors
        assert not report.warnings, report.warnings
        names = {name for refs in report.references.values()
                 for _d, name in refs}
        assert {"a.txt", "b.txt", "docs", "top", "top-link"} <= names

    def test_all_schemes_produce_identical_clean_state(self):
        """After a full sync, every scheme must land the same structure."""
        for scheme in ("conventional", "flag", "chains", "softupdates"):
            m = build_populated_machine(scheme)
            report = fsck(m.disk.storage, SMALL_GEOMETRY)
            assert report.clean, (scheme, report.errors)
            assert not report.warnings, (scheme, report.warnings)
            assert len(report.inodes) == 5  # root, docs, a.txt, b.txt, top
            top_ino = [ino for ino, refs in report.references.items()
                       if ("top" in {n for _d, n in refs})]
            assert report.inodes[top_ino[0]].nlink == 2

    def test_garbage_superblock_reported(self):
        m = make_machine("noorder")
        m.disk.storage.write(SMALL_GEOMETRY.superblock_daddr * 2,
                             b"\x00" * 512)
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert not report.clean
        assert "superblock" in report.errors[0]

    def test_garbage_superblock_short_circuits(self):
        """An unreadable superblock on a populated image is the whole
        report: no inode or bitmap scan runs against a geometry fsck
        could not read."""
        m = build_populated_machine()
        m.disk.storage.write(SMALL_GEOMETRY.superblock_daddr * 2,
                             b"\x00" * 512)
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert len(report.errors) == 1
        assert "superblock" in report.errors[0]
        assert not report.warnings and not report.inodes


class TestDamageDetection:
    def test_entry_to_unallocated_inode(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        root_daddr = geo.cg_data_start(0)
        # find 'top' entry offset in the root block and point it at a free ino
        from repro.fs import directory
        raw = frag_bytes(m, root_daddr)
        entry = next(e for e in directory.iter_entries(raw)
                     if e.name == "top")
        poke(m, root_daddr, entry.offset, struct.pack("<I", 99))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert any("unallocated inode 99" in e for e in report.errors)

    def test_duplicate_block_claim(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        report0 = fsck(m.disk.storage, SMALL_GEOMETRY)
        # pick two regular files and make one point at the other's block
        files = [ino for ino, d in report0.inodes.items()
                 if d.ftype is FileType.REGULAR and d.direct[0]]
        a, b = files[0], files[1]
        victim = report0.inodes[b].direct[0]
        iblk = geo.inode_block_daddr(a)
        at = geo.inode_offset_in_block(a) + 28  # direct[0] offset
        poke(m, iblk, at, struct.pack("<I", victim))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert any("claimed by both" in e for e in report.errors)

    def test_pointer_outside_data_area(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        report0 = fsck(m.disk.storage, SMALL_GEOMETRY)
        ino = next(i for i, d in report0.inodes.items()
                   if d.ftype is FileType.REGULAR)
        iblk = geo.inode_block_daddr(ino)
        at = geo.inode_offset_in_block(ino) + 28
        poke(m, iblk, at, struct.pack("<I", 1))  # boot area
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert any("outside the data area" in e for e in report.errors)

    def test_corrupt_directory_block(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        root_daddr = geo.cg_data_start(0)
        poke(m, root_daddr, 4, struct.pack("<H", 3))  # bad reclen
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert any("corrupt" in e for e in report.errors)

    def test_undercounted_links_is_repairable_warning(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        report0 = fsck(m.disk.storage, SMALL_GEOMETRY)
        # 'top' has two links; force nlink=1 on disk
        ino = next(i for i, d in report0.inodes.items() if d.nlink == 2
                   and d.ftype is FileType.REGULAR)
        iblk = geo.inode_block_daddr(ino)
        at = geo.inode_offset_in_block(ino) + 2  # nlink offset
        poke(m, iblk, at, struct.pack("<H", 1))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean
        assert any("below actual" in w for w in report.warnings)

    def test_overcounted_links_is_only_warning(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        report0 = fsck(m.disk.storage, SMALL_GEOMETRY)
        ino = next(i for i, d in report0.inodes.items()
                   if d.ftype is FileType.REGULAR)
        iblk = geo.inode_block_daddr(ino)
        at = geo.inode_offset_in_block(ino) + 2
        poke(m, iblk, at, struct.pack("<H", 9))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean
        assert any("above actual" in w for w in report.warnings)

    def test_bitmap_leak_is_only_warning(self):
        m = build_populated_machine()
        geo = m.fs.geometry
        from repro.fs.alloc import CgView
        spf = geo.frag_size // 512
        raw = bytearray(m.disk.storage.read(geo.cg_base(1) * spf,
                                            geo.frags_per_block * spf))
        CgView(raw, geo).set_frags(100, 2, True)  # mark used, unreferenced
        m.disk.storage.write(geo.cg_base(1) * spf, bytes(raw))
        report = fsck(m.disk.storage, SMALL_GEOMETRY)
        assert report.clean
        assert any("leak" in w for w in report.warnings)
