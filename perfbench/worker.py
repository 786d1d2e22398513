"""One benchmark operation in a fresh interpreter.

Reads a JSON job on stdin, runs it against the lifeguard sources named in
the job, and prints one JSON line: the operation's own time, the program's
outputs for the parent to check, and with tracing on the per-layer self
times and counts.  A fresh process per operation matters because
lifeguard.dfa memoises derivatives in unbounded module-level caches: a
second compile in the same process would be timed against a warm cache
that no single command-line call gets.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


class Job:
    """The job's fields, the lifeguard package, and the tracer if any."""

    def __init__(self, fields: dict, lg, tracer) -> None:
        self.fields = fields
        self.lg = lg
        self.tracer = tracer

    def __getitem__(self, key):
        return self.fields[key]

    def ground_counts(self, spec, trace) -> dict:
        """Untimed and untraced: the grounding sizes the checks compare
        against their formulas."""
        if self.tracer is not None:
            self.tracer.active = False
        ground = self.lg.grounding.ground_spec(spec, trace)
        return {"instances": len(ground.rules), "alphabet": len(ground.alphabet)}


def op_verify(job: Job) -> tuple[float, dict]:
    lg = job.lg
    spec_text, trace_text = _read(job["spec"]), _read(job["trace_file"])
    start = time.perf_counter()
    spec = lg.rules.parse_spec(spec_text)
    trace = lg.messages.parse_trace(trace_text)
    result = lg.verification.verify(spec, trace, timeout=job["timeout"])
    seconds = time.perf_counter() - start
    out = {"verdict": type(result).__name__.lower(), "states": result.states_explored}
    if isinstance(result, lg.verification.Violation):
        out["sequence"] = list(result.subtrace_sequence)
        out["witness"] = [lg.messages.format_message(m) for m in result.witness.messages]
    if isinstance(result, lg.verification.Unknown):
        out["reason"] = result.reason
    return seconds, {**out, **job.ground_counts(spec, trace)}


def op_validate(job: Job) -> tuple[float, dict]:
    lg = job.lg
    spec_text, trace_text = _read(job["spec"]), _read(job["trace_file"])
    start = time.perf_counter()
    spec = lg.rules.parse_spec(spec_text)
    trace = lg.messages.parse_trace(trace_text)
    report = lg.validation.validate(spec, trace, timeout=job["timeout"])
    seconds = time.perf_counter() - start
    out = {"valid": report.valid, "prefix_len": report.prefix_len,
           "total_len": report.total_len,
           "blocking_message": (lg.messages.format_message(report.blocking_message)
                                if report.blocking_message is not None else None)}
    return seconds, {**out, **job.ground_counts(spec, trace)}


def op_record(job: Job) -> tuple[float, dict]:
    """interp.run of each program under each seeded schedule; the time is
    that of the runs alone."""
    lg = job.lg
    seconds = 0.0
    runs = []
    for entry in job["programs"]:
        program = lg.interp.parse_program(_read(entry["file"]))
        for seed in entry["seeds"]:
            start = time.perf_counter()
            result = lg.interp.run(program, lg.interp.Schedule(seed=seed),
                                   max_steps=job["max_steps"])
            run_seconds = time.perf_counter() - start
            seconds += run_seconds
            runs.append({"status": result.status, "seconds": run_seconds,
                         "text": lg.messages.serialize_trace(result.trace)})
    return seconds, {"runs": runs}


def op_corpus(job: Job) -> tuple[float, dict]:
    argv = ["validate", "--spec", job["spec"], "--corpus", job["dir"],
            "--timeout", str(job["timeout"]), "--report", "json"]
    lg = job.lg
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = lg.cli.main(argv)
    seconds = time.perf_counter() - start
    return seconds, {"exit": code, "report": json.loads(buffer.getvalue())}


OPS = {"verify": op_verify, "validate": op_validate, "record": op_record, "corpus": op_corpus}


def main() -> int:
    fields = json.loads(sys.stdin.read())
    sys.path.insert(0, fields["src"])
    import lifeguard.cli  # noqa: F401  (loads every layer the jobs call)
    import lifeguard as lg

    reply: dict = {"ok": True}
    if fields["op"] != "import":
        tracer = None
        if fields["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.active = True
        try:
            seconds, result = OPS[fields["op"]](Job(fields, lg, tracer))
        except Exception:
            reply = {"ok": False, "error": traceback.format_exc(limit=4)}
        else:
            reply.update(seconds=seconds, result=result,
                         rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.active = False
            reply.update(layers=tracer.self_times(), counts=tracer.counts, spans=tracer.spans)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
