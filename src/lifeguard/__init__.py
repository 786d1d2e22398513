"""Lifeguard: trace-based validation and predictive verification for
event-driven app-framework protocols."""

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
from .interp import Schedule, parse_program, parse_schedule, run

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
