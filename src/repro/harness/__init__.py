"""Experiment harness: scheme registry, runners, metrics, table printers.

This package regenerates the paper's evaluation: every figure and table has
a runner here that builds machines, executes the workload under each scheme
configuration, and produces rows in the paper's format.  The benchmark suite
(``benchmarks/``) is a thin layer over these runners.
"""

from repro.harness.metrics import RunResult, collect
from repro.harness.parallel import GridCellError, run_grid
from repro.harness.runner import (
    SchemeSpec,
    STANDARD_SCHEMES,
    build_machine,
    flag_variant,
    run_copy,
    run_remove,
    scale_factor,
)
from repro.harness.report import format_table

__all__ = [
    "GridCellError",
    "RunResult",
    "STANDARD_SCHEMES",
    "SchemeSpec",
    "build_machine",
    "collect",
    "flag_variant",
    "format_table",
    "run_copy",
    "run_grid",
    "run_remove",
    "scale_factor",
]
