"""Whole-bitmap fsck vs the per-bit oracle, over random cylinder groups.

``cg_bitmap_findings`` and ``rebuild_cg_bitmaps`` build whole bitmaps and
visit only the differing bits; :mod:`tests.integrity.bitmap_oracle` walks
every bit.  For random on-disk headers (random bitmap densities, garbage
in the unused bits of a partial last byte, good and bad magic), random
claim maps and random allocated sets, the findings must be equal element
for element, in order, and the rebuilt header bytes must be equal.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import DiskGeometry, SectorStore
from repro.fs.alloc import CG_MAGIC, CgView
from repro.fs.layout import FSGeometry, ROOT_INO, with_journal
from repro.integrity.fsck import (
    cg_bitmap_findings,
    rebuild_cg_bitmaps,
    valid_data_frag,
)
from tests.integrity.bitmap_oracle import (
    oracle_cg_bitmap_findings,
    oracle_rebuild_cg_bitmaps,
)

#: the explorer's test file system; a 4 KB-block one whose fragment bitmap
#: ends mid-byte (2044 bits); a 2 KB-block, three-group one that does too
GEOMETRIES = [
    FSGeometry(ipg=256, dfrags_per_cg=2048, ncg=2),
    FSGeometry(block_size=4096, frag_size=1024, ipg=64, dfrags_per_cg=2044,
               ncg=2),
    FSGeometry(block_size=2048, frag_size=512, ipg=48, dfrags_per_cg=1020,
               ncg=3),
]
DISK = DiskGeometry(cylinders=20)

#: bitmap-density transforms of three independent random blocks
DENSITIES = {
    "empty": lambda a, b, c: 0,
    "sparse": lambda a, b, c: a & b & c,
    "half": lambda a, b, c: a,
    "dense": lambda a, b, c: a | b | c,
    "full": lambda a, b, c: -1,
}


def random_header(geo: FSGeometry, cg: int, seed: int, density: str,
                  magic: int) -> bytearray:
    """A header block of random bits whose free counters match its bitmaps
    (the per-bit oracle steps them, as the allocator keeps them)."""
    rng = random.Random(seed)
    size = geo.block_size
    a, b, c = (int.from_bytes(rng.randbytes(size), "little")
               for _ in range(3))
    bits = DENSITIES[density](a, b, c) & ((1 << 8 * size) - 1)
    raw = bytearray(bits.to_bytes(size, "little"))
    view = CgView(raw, geo)
    raw[0:4] = magic.to_bytes(4, "little")
    raw[4:8] = cg.to_bytes(4, "little")
    view.free_frags = sum(not view.frag_used(i)
                          for i in range(geo.dfrags_per_cg))
    view.free_inodes = sum(not view.inode_used(i) for i in range(geo.ipg))
    return raw


@st.composite
def cg_cases(draw):
    geo = draw(st.sampled_from(GEOMETRIES))
    cg = draw(st.integers(0, geo.ncg - 1))
    raw = random_header(
        geo, cg, draw(st.integers(0, 2**32)),
        draw(st.sampled_from(sorted(DENSITIES))),
        draw(st.sampled_from([CG_MAGIC] * 4 + [0, 0x12345678])))
    view = CgView(raw, geo)
    base = geo.cg_data_start(cg)
    first = cg * geo.ipg
    # claims near the on-disk bitmap (a few flips) or independent of it,
    # plus claims anywhere on the volume (other groups, non-data areas)
    if draw(st.booleans()):
        used = {i for i in range(geo.dfrags_per_cg) if view.frag_used(i)}
        claimed = used ^ draw(st.sets(st.integers(0, geo.dfrags_per_cg - 1),
                                      max_size=12))
    else:
        claimed = draw(st.sets(st.integers(0, geo.dfrags_per_cg - 1),
                               max_size=200))
    claims = {base + i: ROOT_INO + i % 97 for i in claimed}
    for daddr in draw(st.sets(st.integers(0, geo.total_frags - 1),
                              max_size=30)):
        claims.setdefault(daddr, ROOT_INO)
    if draw(st.booleans()):
        used = {first + i for i in range(geo.ipg) if view.inode_used(i)}
        allocated = used ^ {first + i for i in draw(
            st.sets(st.integers(0, geo.ipg - 1), max_size=8))}
    else:
        allocated = {first + i for i in draw(
            st.sets(st.integers(0, geo.ipg - 1), max_size=60))}
    # the burned inodes and the root, in and out of the set; other groups
    allocated ^= draw(st.sets(st.sampled_from([0, 1, ROOT_INO])))
    allocated |= draw(st.sets(st.integers(0, geo.total_inodes - 1),
                              max_size=10))
    return geo, cg, raw, claims, allocated


def image_with(geo: FSGeometry, cg: int, raw: bytes) -> SectorStore:
    image = SectorStore(DISK)
    spf = geo.frag_size // DISK.sector_size
    image.write(geo.cg_base(cg) * spf, bytes(raw))
    return image


@settings(max_examples=200, deadline=None)
@given(case=cg_cases())
def test_findings_equal_oracle(case):
    geo, cg, raw, claims, allocated = case
    image = image_with(geo, cg, raw)
    assert (cg_bitmap_findings(image, geo, cg, claims, allocated)
            == oracle_cg_bitmap_findings(image, geo, cg, claims, allocated))


@settings(max_examples=200, deadline=None)
@given(case=cg_cases())
def test_rebuilt_header_equals_oracle(case):
    geo, cg, raw, claims, live = case
    claimed = set(claims)
    fast, slow = bytearray(raw), bytearray(raw)
    rebuild_cg_bitmaps(fast, geo, cg, claimed, live)
    oracle_rebuild_cg_bitmaps(slow, geo, cg, claimed, live)
    assert fast == slow


def test_cg0_burned_inodes_and_root_are_never_leaks():
    geo = GEOMETRIES[0]
    raw = random_header(geo, 0, seed=1, density="empty", magic=CG_MAGIC)
    view = CgView(raw, geo)
    for index in (0, 1, ROOT_INO):
        view.set_inode(index, True)
    image = image_with(geo, 0, raw)
    # nothing allocated: the burned bits and the root's bit stay silent
    assert cg_bitmap_findings(image, geo, 0, {}, set()) == []
    # the burned inodes are never reported free either
    view.set_inode(0, False)
    view.set_inode(ROOT_INO, False)
    image = image_with(geo, 0, raw)
    findings = cg_bitmap_findings(image, geo, 0, {}, {0, 1, ROOT_INO})
    assert findings == [("warning", f"inode {ROOT_INO} allocated but bitmap "
                                    f"says free (fsck repairs)")]
    assert findings == oracle_cg_bitmap_findings(image, geo, 0, {},
                                                 {0, 1, ROOT_INO})


def test_bad_magic_is_the_only_finding():
    geo = GEOMETRIES[0]
    raw = random_header(geo, 1, seed=2, density="half", magic=0)
    image = image_with(geo, 1, raw)
    assert (cg_bitmap_findings(image, geo, 1, {}, set())
            == [("error", "cylinder group 1 bad magic")])


@pytest.mark.parametrize("geo", GEOMETRIES[1:])
def test_partial_last_byte_bits_are_not_reported_or_changed(geo):
    """Garbage past ``dfrags_per_cg`` in the last bitmap byte is ignored."""
    raw = random_header(geo, 0, seed=3, density="full", magic=CG_MAGIC)
    view = CgView(raw, geo)
    base = geo.cg_data_start(0)
    claims = {base + i: ROOT_INO for i in range(geo.dfrags_per_cg)}
    live = set(range(geo.ipg))
    image = image_with(geo, 0, raw)
    assert cg_bitmap_findings(image, geo, 0, claims, live) == []
    before = bytes(raw)
    rebuild_cg_bitmaps(raw, geo, 0, set(), set())
    assert view.free_frags == geo.dfrags_per_cg
    assert view.free_inodes == geo.ipg - ROOT_INO
    assert not any(view.frag_used(i) for i in range(geo.dfrags_per_cg))
    # only the counters and the two bitmaps' in-range bits moved
    changed = [at for at in range(len(raw)) if raw[at] != before[at]]
    last = max(changed)
    assert raw[last] == before[last] & ~((1 << geo.dfrags_per_cg % 8) - 1)


@pytest.mark.parametrize("geo", GEOMETRIES + [with_journal(GEOMETRIES[0])])
def test_valid_data_frag_matches_data_index(geo):
    def by_data_index(daddr):
        try:
            geo.data_index(daddr)
            return True
        except ValueError:
            return False

    for daddr in range(-3, geo.total_frags + 3):
        assert valid_data_frag(geo, daddr) == by_data_index(daddr), daddr
