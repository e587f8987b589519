"""Disk drive model.

Models an HP C2447-class SCSI drive (the paper's experimental disk): a
1 GB, 3.5-inch, 5400 RPM device with a segmented on-board read cache that
prefetches sequentially.  The model is mechanical -- every access pays
controller overhead, seek, rotational latency and media transfer -- because
the paper's scheme differences are differences in *how many* and *in what
order* mechanical accesses happen.

Public surface:

* :class:`DiskGeometry` -- platter layout and LBN mapping.
* :class:`DiskParameters` -- timing constants (seek curve, RPM, overheads).
* :class:`SectorStore` -- the persistent bytes (what survives a crash),
  held in copy-on-write flat-buffer chunks.
* :class:`Disk` -- the drive: a generator-based ``service`` routine.
"""

from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskParameters
from repro.disk.storage import SectorStore
from repro.disk.drive import Disk

__all__ = ["Disk", "DiskGeometry", "DiskParameters", "SectorStore"]
