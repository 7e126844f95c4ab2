"""Timing spans around the public calls of each ksqkd layer.

The spans are installed from outside the package: ``Tracer.install``
replaces named module or class attributes with timing wrappers and puts
the originals back on exit.  Callers inside ksqkd look these names up at
call time (``ksset.builtin_ks18()``, ``run_rounds(...)`` from module
globals), so the wrappers see every call.  A target that does not exist
at the traced commit is recorded as absent instead of failing, so a
later change that removes or renames one leaves the benchmark working.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute path, span name).  Only names that the planned kernel
# and streaming rewrites keep are wrapped.
TARGETS = (
    ("ksqkd.cli", "load_config", "cli.load_config"),
    ("ksqkd.ksset", "builtin_ks18", "ksset.builtin_ks18"),
    ("ksqkd.ksset", "min_symbol_mismatch", "ksset.min_symbol_mismatch"),
    ("ksqkd.ksset", "enumerate_valid_colorings", "ksset.enumerate_valid_colorings"),
    ("ksqkd.ksset", "wrong_basis_profiles", "ksset.wrong_basis_profiles"),
    ("ksqkd.ksset", "entanglement_table", "ksset.entanglement_table"),
    ("ksqkd.ksset", "parity_lower_bound", "ksset.parity_lower_bound"),
    ("ksqkd.qcore", "exact_born", "qcore.exact_born"),
    ("ksqkd.kernel", "build_tables", "kernel.build_tables"),
    ("ksqkd.protocol", "substream", "protocol.substream"),
    ("ksqkd.protocol", "run_rounds", "protocol.run_rounds"),
    ("ksqkd.protocol", "estimate_error_stats", "protocol.estimate_error_stats"),
    ("ksqkd.protocol", "extract_key", "protocol.extract_key"),
    ("ksqkd.protocol", "report_from_log", "protocol.report_from_log"),
    ("ksqkd.protocol", "SessionReport.to_json", "protocol.to_json"),
    ("ksqkd.adversary", "exact_intercept_resend_w", "adversary.exact_intercept_resend_w"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(module: str, path: str):
    """The (owner, attribute name) that `path` names, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, on_result=None):
        """`fn` wrapped in a span; `on_result(args, result)` sees each result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    @contextmanager
    def install(self, targets=TARGETS, hooks=None):
        """Wrap every present target for the duration of the block.

        `hooks` maps a span name to an `on_result` callback.  Attributes
        are restored in reverse order on exit, including attributes that
        a class inherited rather than defined.
        """
        hooks = hooks or {}
        undo = []
        try:
            for module, path, name in targets:
                found = resolve(module, path)
                if found is None:
                    self.absent.append(name)
                    continue
                owner, attr = found
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else None
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, hooks.get(name)))
                undo.append((owner, attr, own, original))
            yield self
        finally:
            for owner, attr, own, original in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def self_times(self) -> list[float]:
        """Each span's duration less the time its direct children cover.

        Spans come from one thread, so children never overlap and their
        durations add.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s, self_s in zip(self.spans, own):
            t = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += s.duration
            t["self_s"] += self_s
        return out
