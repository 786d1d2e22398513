"""Lifeguard: trace-based validation and predictive verification for
event-driven app-framework protocols."""

import importlib

from .messages import (
    Message,
    Trace,
    is_violation,
    parse_trace,
    serialize_trace,
)
from .rules import LifestateSpec, Rule, parse_spec
from .grounding import ground_spec, value_universe
from .validation import ValidationReport, validate
from .verification import Safe, Unknown, Violation, split_subtraces, verify

__all__ = [
    "Message",
    "Trace",
    "is_violation",
    "parse_trace",
    "serialize_trace",
    "LifestateSpec",
    "Rule",
    "parse_spec",
    "ground_spec",
    "value_universe",
    "ValidationReport",
    "validate",
    "Safe",
    "Unknown",
    "Violation",
    "split_subtraces",
    "verify",
    "Schedule",
    "parse_program",
    "parse_schedule",
    "run",
]

# The interpreter is imported on first use, so that the checker commands
# do not load it: lifeguard.interp and these of its names.
_INTERP_NAMES = ("Schedule", "parse_program", "parse_schedule", "run")


def __getattr__(name: str):
    if name == "interp" or name in _INTERP_NAMES:
        interp = importlib.import_module(f"{__name__}.interp")
        return interp if name == "interp" else getattr(interp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
