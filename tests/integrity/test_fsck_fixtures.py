"""One fixture image per fsck finding type, asserting the exact codes.

The clean sweeps never exercise most of fsck's finding paths -- a safe
scheme simply never produces an orphan chain or a drifted bitmap.  Each
test here builds a known-good image, performs one surgical mutation, and
asserts the *exact* finding string fsck must produce (the strings are the
API: the explorer's invariant classifier and the repair tests key on
them).  Each fixture is repaired back to pristine where repair claims to
handle it.
"""

import struct

import pytest

from repro.fs import directory
from repro.fs.alloc import CgView
from repro.fs.layout import FileType, ROOT_INO
from repro.integrity import fsck, repair
from tests.conftest import SMALL_GEOMETRY, make_machine, run_user

SPF = SMALL_GEOMETRY.frag_size // 512


def populated():
    m = make_machine("noorder")

    def setup():
        yield from m.fs.write_file("/one", b"1" * 5000)
        yield from m.fs.write_file("/two", b"2" * 5000)
        yield from m.fs.link("/one", "/hard")
        yield from m.fs.sync()

    run_user(m, setup())
    return m


def ino_of(report, name):
    return next(ino for ino, refs in report.references.items()
                if name in {n for _d, n in refs})


def read_block(store, daddr, frags=SMALL_GEOMETRY.frags_per_block):
    return bytearray(store.read(daddr * SPF, frags * SPF))


def write_block(store, daddr, raw):
    store.write(daddr * SPF, bytes(raw))


def patch_inode(m, ino, offset, data):
    geo = m.fs.geometry
    raw = read_block(m.disk.storage, geo.inode_block_daddr(ino))
    at = geo.inode_offset_in_block(ino) + offset
    raw[at:at + len(data)] = data
    write_block(m.disk.storage, geo.inode_block_daddr(ino), raw)


def assert_finding(m, kind, message):
    """The fixture produces exactly this finding."""
    report = fsck(m.disk.storage, SMALL_GEOMETRY)
    findings = report.errors if kind == "error" else report.warnings
    assert message in findings, (message, findings)
    return report


def assert_repairs_to_pristine(m):
    image = m.disk.storage.snapshot()
    after = repair(image, SMALL_GEOMETRY)
    assert after.clean and not after.warnings, (after.errors[:3],
                                                after.warnings[:3])


class TestOrphanedInode:
    def test_exact_code_and_repair(self):
        m = populated()
        before = fsck(m.disk.storage, SMALL_GEOMETRY)
        victim = ino_of(before, "two")
        # kill the directory entry (ino := 0) but leave the inode, its
        # claims, and the bitmaps untouched: a textbook orphan
        root_blk = before.inodes[ROOT_INO].direct[0]
        raw = read_block(m.disk.storage, root_blk)
        entry = next(e for e in directory.iter_entries(raw)
                     if e.live and e.name == "two")
        struct.pack_into("<I", raw, entry.offset, 0)
        write_block(m.disk.storage, root_blk, raw)

        report = assert_finding(
            m, "warning",
            f"inode {victim} allocated but unreferenced (orphan; "
            f"fsck reclaims)")
        assert report.clean  # an orphan is repairable, never corruption
        assert victim not in report.references
        assert_repairs_to_pristine(m)


class TestDuplicateClaim:
    def test_exact_code(self):
        m = populated()
        before = fsck(m.disk.storage, SMALL_GEOMETRY)
        one, two = ino_of(before, "one"), ino_of(before, "two")
        stolen = before.inodes[two].direct[0]
        # point 'one' (the lower ino, scanned first) at 'two's block
        patch_inode(m, one, 28, struct.pack("<I", stolen))

        owner, thief = sorted((one, two))
        report = assert_finding(
            m, "error",
            f"fragment {stolen} claimed by both inode {owner} "
            f"and inode {thief} (rule 2 violated)")
        assert not report.clean  # a double claim is true corruption


class TestBadLinkCounts:
    @pytest.mark.parametrize("nlink,direction", [(1, "below"), (7, "above")])
    def test_exact_codes(self, nlink, direction):
        m = populated()
        before = fsck(m.disk.storage, SMALL_GEOMETRY)
        victim = ino_of(before, "hard")  # true count is 2
        patch_inode(m, victim, 2, struct.pack("<H", nlink))
        report = assert_finding(
            m, "warning",
            f"inode {victim} link count {nlink} {direction} actual "
            f"references 2 (fsck repairs)")
        assert report.clean
        assert_repairs_to_pristine(m)


class TestBitmapDrift:
    def test_used_fragment_marked_free(self):
        m = populated()
        geo = m.fs.geometry
        before = fsck(m.disk.storage, SMALL_GEOMETRY)
        victim = ino_of(before, "one")
        daddr = before.inodes[victim].direct[0]
        cg = geo.cg_of_daddr(daddr)
        raw = read_block(m.disk.storage, geo.cg_base(cg))
        CgView(raw, geo).set_frags(daddr - geo.cg_data_start(cg), 1, False)
        write_block(m.disk.storage, geo.cg_base(cg), raw)

        report = assert_finding(
            m, "warning",
            f"fragment {daddr} in use by inode {victim} but marked free "
            f"(fsck repairs)")
        assert report.clean
        assert_repairs_to_pristine(m)

    def test_allocated_inode_marked_free(self):
        m = populated()
        geo = m.fs.geometry
        before = fsck(m.disk.storage, SMALL_GEOMETRY)
        victim = ino_of(before, "one")
        cg, index = divmod(victim, geo.ipg)
        raw = read_block(m.disk.storage, geo.cg_base(cg))
        CgView(raw, geo).set_inode(index, False)
        write_block(m.disk.storage, geo.cg_base(cg), raw)

        report = assert_finding(
            m, "warning",
            f"inode {victim} allocated but bitmap says free (fsck repairs)")
        assert report.clean
        assert_repairs_to_pristine(m)

    def test_free_inode_marked_used(self):
        m = populated()
        geo = m.fs.geometry
        spare = geo.ipg + 50  # cg 1, never allocated
        raw = read_block(m.disk.storage, geo.cg_base(1))
        CgView(raw, geo).set_inode(spare - geo.ipg, True)
        write_block(m.disk.storage, geo.cg_base(1), raw)

        report = assert_finding(
            m, "warning",
            f"inode {spare} bitmap used but dinode free (leak)")
        assert report.clean
        assert_repairs_to_pristine(m)

    def test_free_fragment_marked_used(self):
        m = populated()
        geo = m.fs.geometry
        daddr = geo.cg_data_start(1) + 300  # never allocated
        raw = read_block(m.disk.storage, geo.cg_base(1))
        CgView(raw, geo).set_frags(300, 1, True)
        write_block(m.disk.storage, geo.cg_base(1), raw)

        report = assert_finding(
            m, "warning",
            f"fragment {daddr} marked used but unreferenced (leak)")
        assert report.clean
        assert_repairs_to_pristine(m)
