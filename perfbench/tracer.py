"""In-memory spans around the public functions of each lifeguard layer.

The wrappers are installed from outside the program: every module
attribute that is one of the wrapped functions is replaced, so calls made
through a name imported into another module (validate -> ground_spec,
AbstractEngine -> compile_spec, cli -> validate) are recorded too.  A
layer's self time is its spans' duration minus the part covered by their
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, layer name, counter fn(result) -> {count name: value})
WRAPPED = (
    ("rules", "parse_spec", "rules.parse", None),
    ("messages", "parse_trace", "messages.parse", None),
    ("grounding", "ground_spec", "grounding.ground",
     lambda g: {"grounding.instances": len(g.rules), "grounding.alphabet": len(g.alphabet)}),
    ("grounding", "compile_spec", "grounding.compile",
     lambda rules: {"dfa.states": sum(r.dfa.n_states for r in rules)}),
    ("validation", "validate_ground", "validation.fold",
     lambda rep: {"validation.msgs": rep.prefix_len + (not rep.valid)}),
    ("verification", "verify", "verification.explore",
     lambda res: {"verification.states": res.states_explored,
                  "verification.certificate": getattr(res, "certificate_size", 0)}),
    ("interp", "parse_program", "interp.parse", None),
    ("interp", "run", "interp.run", lambda res: {"interp.steps": res.steps}),
    ("cli", "main", "cli.self", None),
)
ENGINE_METHODS = ("__init__", "initial_state")  # both count as abstract.init

LAYERS = ("rules.parse", "messages.parse", "cli.self", "grounding.ground", "grounding.compile",
          "abstract.init", "validation.fold", "verification.explore", "interp.parse",
          "interp.run")
COUNTS = ("grounding.instances", "grounding.alphabet", "dfa.states", "validation.msgs",
          "verification.states", "verification.certificate", "interp.steps")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []  # name, start, end, parent (index or None)
        self.counts: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = {"name": layer, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for name, value in counter(result).items():
                    self.counts[name] = self.counts.get(name, 0) + value
            return result
        return traced

    def install(self) -> None:
        for mod_name, *_ in WRAPPED:
            importlib.import_module(f"lifeguard.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "lifeguard" or name.startswith("lifeguard.")]
        for mod_name, attr, layer, counter in WRAPPED:
            original = getattr(sys.modules[f"lifeguard.{mod_name}"], attr)
            traced = self.wrap(original, layer, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        engine = importlib.import_module("lifeguard.abstract").AbstractEngine
        for method in ENGINE_METHODS:
            setattr(engine, method, self.wrap(getattr(engine, method), "abstract.init"))

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = {layer: 0.0 for layer in LAYERS}
        for span, covered in zip(self.spans, child_time):
            out[span["name"]] += span["end"] - span["start"] - covered
        return out
