"""Analysis utilities: series, tables, reports and provenance."""

from .series import Series
from .tables import render_table, format_sig
from .report import Comparison, ExperimentResult
from .plotting import render_ascii_chart, sparkline
from .manifest import RunManifest, RunRecord, current_git_sha

__all__ = [
    "Series",
    "render_table",
    "format_sig",
    "Comparison",
    "ExperimentResult",
    "render_ascii_chart",
    "sparkline",
    "RunManifest",
    "RunRecord",
    "current_git_sha",
]
