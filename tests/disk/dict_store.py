"""The dict-backed sector store: the equivalence oracle for ``SectorStore``.

A sparse map from sector number to ``bytes``; unwritten sectors read back
as zeros.  Per-sector dict churn, but trivially correct.  The simulator
runs on the chunked flat-buffer :class:`repro.disk.storage.SectorStore`;
this class exists only so the store-equivalence suites can drive both
with the same operations and require identical observations.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from repro.disk.geometry import DiskGeometry


class DictSectorStore:
    """Sparse persistent storage addressed by sector (LBN) -- the oracle."""

    name = "dict"

    def __init__(self, geometry: DiskGeometry) -> None:
        self.geometry = geometry
        self._zero = bytes(geometry.sector_size)
        self.sectors_written = 0
        self._sectors: dict[int, bytes] = {}

    def _check_range(self, lbn: int, nsectors: int) -> None:
        if nsectors <= 0:
            raise ValueError(f"sector count must be positive, got {nsectors}")
        if lbn < 0 or lbn + nsectors > self.geometry.total_sectors:
            raise ValueError(
                f"sector range [{lbn}, {lbn + nsectors}) outside disk")

    def read(self, lbn: int, nsectors: int = 1) -> bytes:
        """Read *nsectors* starting at *lbn*; holes read as zeros."""
        self._check_range(lbn, nsectors)
        sectors = self._sectors
        zero = self._zero
        return b"".join(sectors.get(lbn + i, zero) for i in range(nsectors))

    def write(self, lbn: int, data: bytes) -> None:
        """Write *data* (a whole number of sectors) starting at *lbn*."""
        size = self.geometry.sector_size
        if len(data) % size != 0:
            raise ValueError(
                f"write of {len(data)} bytes is not sector-aligned ({size})")
        nsectors = len(data) // size
        self._check_range(lbn, nsectors)
        for i in range(nsectors):
            self._sectors[lbn + i] = bytes(data[i * size:(i + 1) * size])
        self.sectors_written += nsectors

    def write_partial(self, lbn: int, data: bytes,
                      nsectors_applied: int) -> None:
        """Apply only the first *nsectors_applied* sectors of a write."""
        prefix = data[:nsectors_applied * self.geometry.sector_size]
        if prefix:
            self.write(lbn, prefix)

    def snapshot(self) -> "DictSectorStore":
        """An independent copy."""
        clone = DictSectorStore(self.geometry)
        clone._sectors = dict(self._sectors)
        clone.sectors_written = self.sectors_written
        return clone

    def digest(self) -> str:
        """sha256 over ``(lbn, data)`` of every non-zero sector, by LBN."""
        h = hashlib.sha256()
        for lbn, data in self.iter_nonzero():
            h.update(lbn.to_bytes(8, "little"))
            h.update(data)
        return h.hexdigest()

    def iter_nonzero(self) -> Iterator[tuple[int, bytes]]:
        """``(lbn, data)`` for non-zero sectors, ascending by LBN."""
        zero = self._zero
        sectors = self._sectors
        for lbn in sorted(sectors):
            data = sectors[lbn]
            if data != zero:
                yield lbn, data

    def load_from(self, image) -> None:
        """Replace content wholesale with *image*'s (counter untouched)."""
        self._sectors = {lbn: bytes(data)
                         for lbn, data in image.iter_nonzero()}

    def __len__(self) -> int:
        """Number of distinct sectors ever written."""
        return len(self._sectors)
