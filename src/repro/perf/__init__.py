"""Metrics and reporting helpers."""

from .dotplot import Dotplot, dotplot
from .report import (
    chain_report,
    chain_result_dict,
    process_report,
    process_result_dict,
    result_dict,
    single_result_dict,
)
from .metrics import (
    efficiency,
    format_table,
    gcups,
    humanize_cells,
    humanize_time,
    speedup,
)

__all__ = [
    "Dotplot",
    "dotplot",
    "chain_report",
    "chain_result_dict",
    "process_report",
    "process_result_dict",
    "result_dict",
    "single_result_dict",
    "efficiency",
    "format_table",
    "gcups",
    "humanize_cells",
    "humanize_time",
    "speedup",
]
