"""Per-bit bitmap audit and rebuild: the equivalence oracle for fsck.

:func:`repro.integrity.fsck.cg_bitmap_findings` and
:func:`repro.integrity.fsck.rebuild_cg_bitmaps` work on whole bitmaps and
visit only the bits that differ.  These are the straightforward versions
they replaced: one ``frag_used`` / ``inode_used`` call per bit, in index
order.  Slow, but obviously right; the bitmap-equivalence suite requires
the whole-bitmap versions to produce identical findings and identical
header bytes.
"""

from __future__ import annotations

from repro.fs.alloc import CG_MAGIC, CgView
from repro.fs.layout import FSGeometry, ROOT_INO
from repro.integrity.fsck import read_image_frags


def oracle_cg_bitmap_findings(image, geo: FSGeometry, cg: int,
                              claims: dict[int, int],
                              allocated) -> list[tuple[str, str]]:
    """Phase-4 findings for one cylinder group, bit by bit."""
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


def oracle_rebuild_cg_bitmaps(raw: bytearray, geo: FSGeometry, cg: int,
                              claims, live) -> None:
    """Rewrite one cylinder-group header's bitmaps and counts, bit by bit.

    *claims* and *live* must answer ``in``.  The per-bit ``set_frags`` /
    ``set_inode`` calls also step the free counters, so the header's
    counters must agree with its bitmaps on entry (as the allocator keeps
    them); both totals are overwritten at the end either way.
    """
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
        wanted = (ino < ROOT_INO and cg == 0) or ino in live
        if view.inode_used(index) != wanted:
            view.set_inode(index, wanted)
        free_inodes += 0 if wanted else 1
    view.free_frags = free_frags
    view.free_inodes = free_inodes
