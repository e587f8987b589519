"""fsck: audit a (possibly crashed) disk image.

Violations (``errors`` -- structural integrity is lost, fsck cannot decide
the right repair):

* a directory entry points to an unallocated or out-of-range inode (rule 3
  for inodes / rule 1 for rename),
* a data fragment is claimed by two files, or claimed and also outside the
  data area (rule 2),
* an inode holds a pointer outside the volume or into metadata regions,
* directory contents are structurally corrupt.

Repairable inconsistencies (``warnings`` -- classic fsck fixes these
mechanically, the paper's schemes deliberately allow them):

* link count differing from the number of references, in either direction:
  fsck recomputes the reference count from the (intact) directory tree and
  rewrites ``nlink``, so both too-high (remove ordered entry-first) and
  too-low (an existing inode gained an entry -- e.g. a new subdirectory's
  '..' -- before its nlink bump landed) are mechanical repairs.  Note rule 3
  concerns *uninitialized* inodes; pointing at an initialized, live inode
  early only skews the count,
* allocated-but-unreferenced inodes or fragments (leaks),
* bitmap says free but the fragment/inode is referenced (fsck re-marks it),
* bitmap says used but nothing references it.

Each phase is split into a *pure* per-inode (or per-cylinder-group) scan
that reads only the image and emits an op-stream, and a *replay* pass that
folds the streams into the global claim table and reference map in
ascending inode order.  The online monitor (:mod:`repro.integrity.monitor`)
reuses the pure scans so its claim semantics match fsck's exactly.

The audit is serial: on this simulator's images, a few cylinder groups
each, a pFSCK-style per-cylinder-group process pool (arxiv 2004.05524)
runs at a quarter to a third of the serial audit's speed, because forking
and merging cost more than the scans.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.disk.storage import SectorStore
from repro.fs import directory, journal
from repro.fs.alloc import CG_MAGIC, CgView
from repro.fs.layout import Dinode, FileType, FSGeometry, ROOT_INO
from repro.fs.superblock import Superblock


@dataclass
class FsckReport:
    """Outcome of one audit."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: ino -> Dinode for every allocated inode
    inodes: dict[int, Dinode] = field(default_factory=dict)
    #: path-ish names discovered, for tests: ino -> list of (dir ino, name)
    references: dict[int, list[tuple[int, str]]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        return (f"fsck: {len(self.errors)} errors, {len(self.warnings)} "
                f"warnings, {len(self.inodes)} inodes")


# ----------------------------------------------------------------------
# pure per-inode scans: read the image, emit op-streams
#
# These know nothing about other inodes; all cross-inode judgement (double
# claims, unallocated targets) happens when the streams are replayed, in
# ascending inode order, against the global tables.  The monitor
# (repro.integrity.monitor) reuses them so its claim semantics match
# fsck's exactly.
# ----------------------------------------------------------------------
def read_image_frags(image: SectorStore, geo: FSGeometry,
                     daddr: int, frags: int) -> bytes:
    spf = geo.frag_size // image.geometry.sector_size
    return image.read(daddr * spf, frags * spf)


def read_image_inode(image: SectorStore, geo: FSGeometry,
                     ino: int) -> Dinode:
    block = read_image_frags(image, geo, geo.inode_block_daddr(ino),
                             geo.frags_per_block)
    at = geo.inode_offset_in_block(ino)
    return Dinode.unpack(block[at:at + 128])


def scan_cg_inodes(image: SectorStore, geo: FSGeometry,
                   cg: int) -> list[tuple[int, Dinode]]:
    """All allocated dinodes of one cylinder group, ascending.

    Reads each inode-table block once (not once per inode slot) -- the
    dinodes and their order are exactly what a per-slot walk produces, so
    replaying the result is byte-identical to the slot-by-slot scan.
    """
    table = geo.cg_inode_table(cg)
    per_block = geo.inodes_per_block
    out: list[tuple[int, Dinode]] = []
    for block_index in range(geo.inode_blocks_per_cg):
        raw = read_image_frags(image, geo,
                               table + block_index * geo.frags_per_block,
                               geo.frags_per_block)
        base = cg * geo.ipg + block_index * per_block
        for slot in range(per_block):
            ino = base + slot
            if ino < ROOT_INO:
                continue  # burned inodes
            din = Dinode.unpack(raw[slot * 128:(slot + 1) * 128])
            if din.allocated:
                out.append((ino, din))
    return out


class _JournalView:
    """A SectorStore view with the committed journal overlay applied.

    A crashed journaling file system is judged *with* its log: recovery
    replays every committed transaction, so the recoverable state -- the
    state fsck must audit -- is the raw image plus the scan overlay.  The
    view composes reads sector-by-sector.  Images without a journal area
    never construct one.
    """

    __slots__ = ("geometry", "_base", "_sector_overlay")

    def __init__(self, base: SectorStore, geo: FSGeometry,
                 overlay: dict[int, bytes]) -> None:
        self.geometry = base.geometry
        self._base = base
        size = base.geometry.sector_size
        spf = geo.frag_size // size
        self._sector_overlay: dict[int, bytes] = {}
        for frag, data in overlay.items():
            for s in range(spf):
                self._sector_overlay[frag * spf + s] = bytes(
                    data[s * size:(s + 1) * size])

    def read(self, lbn: int, nsectors: int = 1) -> bytes:
        out = []
        for sector in range(lbn, lbn + nsectors):
            hit = self._sector_overlay.get(sector)
            out.append(hit if hit is not None
                       else self._base.read(sector, 1))
        return b"".join(out)

def journal_overlay_view(image: SectorStore, geo: FSGeometry):
    """*image* as recovery would leave it (identity when there is no log)."""
    if not geo.journal_frags:
        return image
    spf = geo.frag_size // image.geometry.sector_size
    result = journal.scan_journal(
        lambda daddr, n: image.read(daddr * spf, n * spf), geo)
    if not result.overlay:
        return image
    return _JournalView(image, geo, result.overlay)


def valid_data_frag(geo: FSGeometry, daddr: int) -> bool:
    try:
        geo.data_index(daddr)
        return True
    except ValueError:
        return False


def block_frags(geo: FSGeometry, din: Dinode, lblk: int) -> int:
    """Fragments held by logical block *lblk* (tail blocks may be short)."""
    if din.ftype is FileType.DIRECTORY:
        return geo.frags_per_block
    size = din.size
    last = (size - 1) // geo.block_size if size else 0
    if (lblk < last or lblk >= geo.NDADDR
            or size > geo.NDADDR * geo.block_size):
        return geo.frags_per_block
    tail = size - lblk * geo.block_size
    return max(1, (tail + geo.frag_size - 1) // geo.frag_size)


def inode_claim_ops(image: SectorStore, geo: FSGeometry, ino: int,
                    din: Dinode) -> list[tuple]:
    """Phase-1 op-stream for one inode: ``("frag", daddr)`` claims (in the
    exact order the serial walk visits them) and ``("error", msg)`` for
    pointers that leave the data area."""
    ops: list[tuple] = []

    def claim(daddr: int, frags: int) -> None:
        for fragment in range(daddr, daddr + frags):
            if not valid_data_frag(geo, fragment):
                ops.append(("error",
                            f"inode {ino} points outside the data area "
                            f"(daddr {fragment})"))
                return
            ops.append(("frag", fragment))

    def claim_indirect(daddr: int, depth: int) -> None:
        if not valid_data_frag(geo, daddr):
            ops.append(("error",
                        f"inode {ino} indirect pointer outside data area "
                        f"({daddr})"))
            return
        claim(daddr, geo.frags_per_block)
        raw = read_image_frags(image, geo, daddr, geo.frags_per_block)
        for pointer in struct.unpack(f"<{geo.nindir}I", raw):
            if not pointer:
                continue
            if depth > 1:
                claim_indirect(pointer, depth - 1)
            else:
                claim(pointer, geo.frags_per_block)

    blocks = (din.size + geo.block_size - 1) // geo.block_size
    for lblk in range(min(blocks, geo.NDADDR)):
        daddr = din.direct[lblk]
        if daddr:
            claim(daddr, block_frags(geo, din, lblk))
    if din.sindirect:
        claim_indirect(din.sindirect, depth=1)
    if din.dindirect:
        claim_indirect(din.dindirect, depth=2)
    return ops


def directory_events(image: SectorStore, geo: FSGeometry, ino: int,
                     din: Dinode) -> list[tuple]:
    """Phase-2 event-stream for one directory: structural ``("error", msg)``
    findings plus ``("ref", target, name)`` for every live entry (replayed
    against the global inode table by :meth:`_Checker.note_reference`)."""
    events: list[tuple] = []
    seen_dot = seen_dotdot = False
    blocks = (din.size + geo.block_size - 1) // geo.block_size
    for lblk in range(min(blocks, geo.NDADDR)):
        daddr = din.direct[lblk]
        if not daddr:
            events.append(("error",
                           f"directory {ino} has a hole at block {lblk}"))
            continue
        if not valid_data_frag(geo, daddr):
            continue  # already reported by the claim walk
        raw = read_image_frags(image, geo, daddr, geo.frags_per_block)
        try:
            entries = list(directory.iter_entries(raw))
        except directory.CorruptDirectory as exc:
            events.append(("error",
                           f"directory {ino} block {lblk} corrupt: {exc}"))
            continue
        for entry in entries:
            if not entry.live:
                continue
            if entry.name == ".":
                seen_dot = True
                if entry.ino != ino:
                    events.append(("error",
                                   f"directory {ino}: '.' points to "
                                   f"{entry.ino}"))
                continue
            if entry.name == "..":
                seen_dotdot = True
                events.append(("ref", entry.ino, ".."))
                continue
            events.append(("ref", entry.ino, entry.name))
    if din.size and not (seen_dot and seen_dotdot):
        events.append(("error", f"directory {ino} missing '.' or '..'"))
    return events


def cg_bitmap_findings(image: SectorStore, geo: FSGeometry, cg: int,
                       claims: dict[int, int],
                       allocated) -> list[tuple[str, str]]:
    """Phase-4 findings for one cylinder group: ``(kind, msg)`` tuples,
    kind ``"error"`` or ``"warning"``.  *claims* maps fragment daddr ->
    owning ino (may be restricted to this group's range); *allocated* is a
    container answering ``ino in allocated``."""
    findings: list[tuple[str, str]] = []
    raw = bytearray(read_image_frags(image, geo, geo.cg_base(cg),
                                     geo.frags_per_block))
    view = CgView(raw, geo)
    if view.magic != CG_MAGIC:
        findings.append(("error", f"cylinder group {cg} bad magic"))
        return findings
    base = geo.cg_data_start(cg)
    for index in range(geo.dfrags_per_cg):
        daddr = base + index
        used = view.frag_used(index)
        claimed = daddr in claims
        if claimed and not used:
            findings.append(("warning",
                             f"fragment {daddr} in use by inode "
                             f"{claims[daddr]} but marked free "
                             f"(fsck repairs)"))
        elif used and not claimed:
            findings.append(("warning",
                             f"fragment {daddr} marked used but "
                             f"unreferenced (leak)"))
    for index in range(geo.ipg):
        ino = cg * geo.ipg + index
        if ino < ROOT_INO:
            continue
        used = view.inode_used(index)
        is_alloc = ino in allocated
        if is_alloc and not used:
            findings.append(("warning",
                             f"inode {ino} allocated but bitmap says free "
                             f"(fsck repairs)"))
        elif used and not is_alloc and ino != ROOT_INO:
            findings.append(("warning",
                             f"inode {ino} bitmap used but dinode free "
                             f"(leak)"))
    return findings


class _Checker:
    """Replays op-streams into the global report (the serial core)."""

    def __init__(self, image: SectorStore, geometry: FSGeometry) -> None:
        self.image = image
        self.geo = geometry
        self.report = FsckReport()
        self.claims: dict[int, int] = {}  # fragment daddr -> claiming ino

    # -- raw readers ------------------------------------------------------
    def read_frags(self, daddr: int, frags: int) -> bytes:
        return read_image_frags(self.image, self.geo, daddr, frags)

    def read_inode(self, ino: int) -> Dinode:
        return read_image_inode(self.image, self.geo, ino)

    # -- phase 1: inodes and block claims ------------------------------------
    def scan_inodes(self) -> None:
        for cg in range(self.geo.ncg):
            for ino, din in scan_cg_inodes(self.image, self.geo, cg):
                self.report.inodes[ino] = din
                self.apply_claim_ops(
                    ino, inode_claim_ops(self.image, self.geo, ino, din))

    def apply_claim_ops(self, ino: int, ops: list[tuple]) -> None:
        """Fold one inode's claim stream into the global claim table."""
        for op in ops:
            if op[0] == "error":
                self.report.errors.append(op[1])
                continue
            fragment = op[1]
            owner = self.claims.get(fragment)
            if owner is not None and owner != ino:
                self.report.errors.append(
                    f"fragment {fragment} claimed by both inode {owner} "
                    f"and inode {ino} (rule 2 violated)")
            else:
                self.claims[fragment] = ino

    # -- phase 2: directory structure ----------------------------------------
    def scan_directories(self) -> None:
        for ino, din in self.report.inodes.items():
            if din.ftype is not FileType.DIRECTORY:
                continue
            self.apply_directory_events(
                ino, directory_events(self.image, self.geo, ino, din))

    def apply_directory_events(self, ino: int, events: list[tuple]) -> None:
        for event in events:
            if event[0] == "error":
                self.report.errors.append(event[1])
            else:
                self.note_reference(event[1], ino, event[2])

    def note_reference(self, target: int, dir_ino: int, name: str) -> None:
        if not (0 <= target < self.geo.total_inodes):
            self.report.errors.append(
                f"directory {dir_ino} entry {name!r} points to out-of-range "
                f"inode {target}")
            return
        if target not in self.report.inodes:
            self.report.errors.append(
                f"directory {dir_ino} entry {name!r} points to unallocated "
                f"inode {target} (rule 3 violated)")
            return
        self.report.references.setdefault(target, []).append((dir_ino, name))

    # -- phase 3: link counts -------------------------------------------------
    def check_links(self) -> None:
        for ino, din in self.report.inodes.items():
            if ino != ROOT_INO and not self.report.references.get(ino):
                self.report.warnings.append(
                    f"inode {ino} allocated but unreferenced (orphan; "
                    f"fsck reclaims)")
                continue
            refs = len(self.report.references.get(ino, []))
            if din.ftype is FileType.DIRECTORY:
                refs += 1  # its own '.'
            if din.nlink < refs:
                self.report.warnings.append(
                    f"inode {ino} link count {din.nlink} below actual "
                    f"references {refs} (fsck repairs)")
            elif din.nlink > refs:
                self.report.warnings.append(
                    f"inode {ino} link count {din.nlink} above actual "
                    f"references {refs} (fsck repairs)")

    # -- phase 4: bitmaps -------------------------------------------------------
    def check_bitmaps(self) -> None:
        for cg in range(self.geo.ncg):
            self.apply_bitmap_findings(cg_bitmap_findings(
                self.image, self.geo, cg, self.claims, self.report.inodes))

    def apply_bitmap_findings(self,
                              findings: list[tuple[str, str]]) -> None:
        for kind, msg in findings:
            (self.report.errors if kind == "error"
             else self.report.warnings).append(msg)


def repair(image: SectorStore,
           geometry: FSGeometry | None = None) -> FsckReport:
    """Repair an image in place (warnings only); returns the re-audit.

    Implements classic fsck's mechanical fixes for the inconsistencies the
    paper's safe schemes deliberately allow: link counts are rewritten to
    the observed reference counts, referenced-but-free bitmap bits are
    re-marked, unreferenced used bits are released, and orphaned inodes are
    cleared with their blocks returned to the free pool.  Images with true
    integrity *errors* are not repairable; callers should check
    :func:`fsck` first.
    """
    geometry = geometry or FSGeometry()
    report = fsck(image, geometry)
    geo = Superblock.unpack(image.read(
        geometry.superblock_daddr * (geometry.frag_size
                                     // image.geometry.sector_size),
        geometry.frag_size // image.geometry.sector_size)).geometry
    spf = geo.frag_size // image.geometry.sector_size
    if geo.journal_frags:
        # recovery proper: physically replay the committed log and retire
        # it, so the repairs below operate on the recovered image and the
        # repaired image mounts with an empty log
        journal.replay_into(
            lambda daddr, n: image.read(daddr * spf, n * spf),
            lambda daddr, data: image.write(daddr * spf, data),
            geo)
    checker = _Checker(image, geo)
    checker.scan_inodes()
    checker.scan_directories()

    # orphan detection cascades: clearing an unreferenced directory removes
    # its entries, which can orphan its children (and drops the '..'
    # reference it contributed to its parent's link count)
    orphans: set[int] = set()
    changed = True
    while changed:
        changed = False
        for ino in checker.report.inodes:
            if ino == ROOT_INO or ino in orphans:
                continue
            live_refs = [dir_ino for dir_ino, _name
                         in checker.report.references.get(ino, [])
                         if dir_ino not in orphans]
            if not live_refs:
                orphans.add(ino)
                changed = True

    def write_inode(ino: int, din: Dinode) -> None:
        daddr = geo.inode_block_daddr(ino)
        block = bytearray(image.read(daddr * spf,
                                     geo.frags_per_block * spf))
        at = geo.inode_offset_in_block(ino)
        block[at:at + 128] = din.pack()
        image.write(daddr * spf, bytes(block))

    # fix link counts (counting only references that survive the orphan
    # sweep); clear orphans
    for ino, din in checker.report.inodes.items():
        if ino in orphans:
            write_inode(ino, Dinode())
            continue
        refs = sum(1 for dir_ino, _name
                   in checker.report.references.get(ino, [])
                   if dir_ino not in orphans)
        if din.ftype is FileType.DIRECTORY:
            refs += 1
        if din.nlink != refs:
            din.nlink = refs
            write_inode(ino, din)

    # rebuild the bitmaps from the surviving (non-orphan) claims
    claims = {daddr for daddr, owner in checker.claims.items()
              if owner not in orphans}
    for cg in range(geo.ncg):
        raw = bytearray(image.read(geo.cg_base(cg) * spf,
                                   geo.frags_per_block * spf))
        view = CgView(raw, geo)
        base = geo.cg_data_start(cg)
        free_frags = free_inodes = 0
        for index in range(geo.dfrags_per_cg):
            wanted = (base + index) in claims
            if view.frag_used(index) != wanted:
                view.set_frags(index, 1, wanted)
            free_frags += 0 if wanted else 1
        for index in range(geo.ipg):
            ino = cg * geo.ipg + index
            wanted = (ino < ROOT_INO and cg == 0) or (
                ino in checker.report.inodes and ino not in orphans)
            if view.inode_used(index) != wanted:
                view.set_inode(index, wanted)
            free_inodes += 0 if wanted else 1
        view.free_frags = free_frags
        view.free_inodes = free_inodes
        image.write(geo.cg_base(cg) * spf, bytes(raw))

    return fsck(image, geometry)


def fsck(image: SectorStore, geometry: FSGeometry | None = None) -> FsckReport:
    """Audit *image*; returns the :class:`FsckReport`."""
    geometry = geometry or FSGeometry()
    spf = geometry.frag_size // image.geometry.sector_size
    try:
        superblock = Superblock.unpack(
            image.read(geometry.superblock_daddr * spf, spf))
    except ValueError as exc:
        report = FsckReport()
        report.errors.append(f"superblock unreadable: {exc}")
        return report
    geo = superblock.geometry
    # a journaling image is audited in its *recovered* state: raw image
    # plus the committed log overlay (identity for journal-less layouts)
    image = journal_overlay_view(image, geo)
    checker = _Checker(image, geo)
    checker.scan_inodes()
    if ROOT_INO not in checker.report.inodes:
        checker.report.errors.append("root inode missing")
        return checker.report
    checker.scan_directories()
    checker.check_links()
    checker.check_bitmaps()
    return checker.report
