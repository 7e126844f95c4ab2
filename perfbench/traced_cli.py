"""Run one ksqkd CLI command in this process with layer spans installed.

Usage: python perfbench/traced_cli.py SUMMARY.json -- <ksqkd arguments>

The command writes its usual output and exits with its usual code.  The
per-layer summary goes to SUMMARY.json: span totals, absent spans, the
size of every session run, the time of the session's five uniform
substream draws redone on their own after the command has finished
(the floor a round kernel cannot beat), and the measured cost of one
span with the number of spans recorded.  ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from tracing import Tracer

# Uniforms per round drawn from each named substream by protocol.run_rounds.
DRAWS = (("alice", 2), ("bob", 2), ("noise", 2), ("adversary", 2), ("check", 1))


def time_draws(substream, seed: int, rounds: int) -> tuple[float, int]:
    """Seconds spent in the five `random` calls, and the bytes they return."""
    seconds, nbytes = 0.0, 0
    for name, width in DRAWS:
        gen = substream(seed, name)
        t0 = time.perf_counter()
        u = gen.random((rounds, width))
        seconds += time.perf_counter() - t0
        nbytes += u.nbytes
        del u
    return seconds, nbytes


def span_cost(calls: int = 20_000, repeats: int = 3) -> float:
    """Seconds one span adds to a call: a wrapped no-op less a bare one,
    each the fastest of `repeats` loops of `calls` calls."""
    def noop():
        pass

    def loop(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best
    return (loop(Tracer().wrap(noop, "noop")) - loop(noop)) / calls


def run(argv: list[str]) -> tuple[int, dict]:
    """Run `ksqkd <argv>` traced; return its exit code and the summary."""
    from ksqkd import cli, protocol

    sessions, reports = [], []

    def on_rounds(args, log):
        arrays = [v for v in vars(log).values() if isinstance(v, np.ndarray)]
        sessions.append({
            "seed": args[0].seed,
            "rounds": len(log),
            "log_bytes": sum(a.nbytes for a in arrays),
        })

    def on_report(args, report):
        reports.append({"sifted": report.rounds_sifted, "checks": report.checks_used})

    tracer = Tracer()
    hooks = {"protocol.run_rounds": on_rounds, "protocol.report_from_log": on_report}
    with tracer.install(hooks=hooks):
        code = cli.main(argv)

    t0 = time.perf_counter()
    cost = span_cost()
    rng_draw_s = None
    substream = getattr(protocol, "substream", None)
    if substream is not None:
        rng_draw_s = 0.0
        for s in sessions:
            seconds, s["uniform_bytes"] = time_draws(substream, s["seed"], s["rounds"])
            rng_draw_s += seconds
    summary = {
        "spans": tracer.totals(),
        "absent": tracer.absent,
        "sessions": sessions,
        "reports": reports,
        "rng_draw_s": rng_draw_s,
        "span_cost_s": cost,
        "span_count": len(tracer.spans),
        "after_wall_s": time.perf_counter() - t0,
    }
    return code, summary


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    code, summary = run(sys.argv[3:])
    with open(sys.argv[1], "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
