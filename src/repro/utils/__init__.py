"""Shared helpers: formatting."""

from repro.utils.formatting import format_bytes, format_seconds, render_table

__all__ = [
    "format_bytes",
    "format_seconds",
    "render_table",
]
