"""Metrics and reporting helpers."""

from .._lazy import lazy_package

# Each name loads its module on first access: an align run does not pay
# for the dot-plot renderer.
lazy_package(__name__, {
    ".dotplot": ("Dotplot", "dotplot"),
    ".report": ("chain_report", "chain_result_dict", "process_report",
                "process_result_dict", "result_dict", "single_result_dict"),
    ".metrics": ("efficiency", "format_table", "gcups", "humanize_cells",
                 "humanize_time", "speedup"),
})

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
