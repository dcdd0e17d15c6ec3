"""Exact step-function arithmetic, series families with prescribed sum
ranges, rearrangement schedules, and their verification.

The top level holds the names of the README's quick start and the family
builders; everything else is imported from its submodule."""

from .families import apply_transform, build_kadets, build_multipoint, build_three_kadets
from .schedules import run_trace, schedule_point
from .verify import verify_family

__all__ = [
    "apply_transform",
    "build_kadets",
    "build_multipoint",
    "build_three_kadets",
    "run_trace",
    "schedule_point",
    "verify_family",
]

__version__ = "0.1.0"
