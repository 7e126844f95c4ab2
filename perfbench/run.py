"""Layered benchmark of the ksqkd command-line paths.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; nothing needs installing.
Every ksqkd command runs as a fresh child process
(``python -m ksqkd.cli ...`` with ``src`` on PYTHONPATH), one at a time,
as a closed loop with a single client: the next command starts when the
previous one has exited.  The workload seed fixes every session seed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall
time of one pass over the workload's commands), ``setup_s`` (median
wall time of the same commands at one round; ``--help`` for
``structure``) and ``peak_rss_mb`` (median peak RSS of a pass, read per
child with ``os.wait4``).  Both times are in nominal seconds: each pass's
wall time is scaled by how fast the host ran a fixed pure-Python
reference loop just before and just after the pass (see ``nominal_s``),
so that drift in a shared host's CPU speed cancels out.  ``--trace 1`` alternates untraced passes with
passes run through ``traced_cli.py``, which wraps each layer's public
calls in timing spans, and reports the per-layer metrics plus the
tracing overhead.  Everything a run does, warm-up and setup passes
included, fits in ``--seconds``, except that a run always makes at least
one pass and MIN_SETUP_REPEATS setup passes.  Every command's output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracing import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
MIN_SETUP_REPEATS = 3
SESSION_ROUNDS = 10**6
SWEEP_ROUNDS = 20_000
SWEEP_POINTS = 13
CHECK_FRACTION = 0.5
SIGMAS = 4
# The reference loop that measures the host's current speed, the time it
# is taken to need at nominal speed (roughly what it takes on a 2-core
# x86_64 host), and how long it repeats after a pass, as a share of the
# pass: a longer reference averages out the speed's faster swings.
REFERENCE_LOOPS = 1_000_000
REFERENCE_NOMINAL_S = 0.09
REFERENCE_SHARE = 0.1

# Expected `ksqkd analyze` document for the builtin set; mirrors the
# expectations `cmd_analyze` checks before choosing its exit code.
ANALYZE_EXPECT = {
    "colorings": 0,
    "parity_bound": 2,
    "min_mismatch": 2,
    "profiles_ok": True,
    "entangled_count": 6,
}

Check = Callable[[int, bytes], list]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), interpolating between order statistics."""
    xs = sorted(values)
    rank = q / 100 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(values) -> tuple[float, float] | None:
    """(q, value) for the highest percentile with >= 10 samples beyond it.

    None when there are fewer than 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    q = 100 * (1 - 10 / n)
    return q, percentile(values, q)


def reference_s(budget_s: float = 0.0) -> float:
    """Mean wall seconds of the fixed reference loop, repeated for at least
    `budget_s` seconds (at least once)."""
    t0 = time.perf_counter()
    loops = 0
    while True:
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i % 7
        loops += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed / loops


def nominal_s(wall_s: float, reference_before: float, reference_after: float) -> float:
    """`wall_s` scaled to the host's nominal speed.

    On a shared host the CPU speed drifts by 20-30% over minutes, and every
    command moves with it; the reference loops timed on either side of a
    pass move the same way, so the ratio keeps the program's own cost.
    """
    return wall_s * REFERENCE_NOMINAL_S / ((reference_before + reference_after) / 2)


def describe(values, unit: str) -> str:
    """A median with its sample count and tail percentile, for people."""
    text = f"{statistics.median(values):.6g} {unit}, median of {len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return text + " (too few samples for a tail percentile)"
    return text + f", p{tail[0]:.4g} {tail[1]:.6g} {unit}"


def within(value, p: float, n: float, label: str) -> list:
    """Problems if `value` is more than SIGMAS binomial sigmas from p."""
    if value is None or n <= 0:
        return [f"{label} undefined"]
    if abs(value - p) > SIGMAS * math.sqrt(p * (1 - p) / n):
        return [f"{label} = {value} is not within {SIGMAS} sigma of {p:.6g} (n = {n:.0f})"]
    return []


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def expect_exit(codes, inner: Check | None = None) -> Check:
    def check(code, data):
        if code not in codes:
            return [f"exit code {code}, expected one of {sorted(codes)}"]
        return inner(code, data) if inner else []
    return check


def session_check(rounds: int, stats: Callable[[dict], list] | None) -> Callable:
    """Gate on a `simulate` report; `stats` adds the workload's rate checks."""
    def check(code, data):
        r = json.loads(data)
        problems = []
        if r["rounds_total"] != rounds:
            problems.append(f"rounds_total {r['rounds_total']} != {rounds}")
        key_len = r["rounds_sifted"] - r["checks_used"]
        for k in ("key_alice", "key_bob"):
            if len(r[k]) != key_len:
                problems.append(f"len({k}) {len(r[k])} != rounds_sifted - checks_used {key_len}")
        return problems + (stats(r) if stats else [])
    return check


def ball_stats(r: dict) -> list:
    # Expected optimal-ball rates: same-basis rounds never err, a sifted
    # cross-basis round errs iff the ball is one of the 2 defective of 18,
    # and a state sifts iff Bob picks one of its 2 home bases of 9.
    problems = [] if r["w_same"] == 0 else [f"w_same = {r['w_same']}, expected exactly 0"]
    cross_share = (r["sift_rate"] - r["same_basis_rate"]) / r["sift_rate"]
    problems += within(r["w_cross"], 2 / 18, r["checks_used"] * cross_share, "w_cross")
    problems += within(r["sift_rate"], 2 / 9, r["rounds_total"], "sift_rate")
    return problems


def intercept_noisy_stats(p_noise: float) -> Callable[[dict], list]:
    # Intercept-resend errs at 17/36; a depolarized round errs at 3/4.
    w = (1 - p_noise) * 17 / 36 + p_noise * 3 / 4
    return lambda r: within(r["w_overall"], w, r["checks_used"], "w_overall")


def sweep_check(points: int, stats: bool) -> Check:
    def check(code, data):
        rows = data.decode().splitlines()[1:]
        if len(rows) != points:
            return [f"{len(rows)} sweep rows, expected {points}"]
        problems = []
        for row in rows if stats else ():
            cells = row.split(",")
            p, w, sifted = float(cells[0]), float(cells[1]), int(cells[5])
            if p == 0:
                if w != 0:
                    problems.append(f"w_overall = {w} at p = 0, expected exactly 0")
            else:
                problems += within(w, 0.75 * p, sifted * CHECK_FRACTION, f"w_overall at p = {p}")
        return problems
    return check


def analyze_check(code, data):
    doc = json.loads(data)
    return [f"analyze {k} = {doc.get(k)!r}, expected {v!r}"
            for k, v in ANALYZE_EXPECT.items() if doc.get(k) != v]


def intercept_check(code, data):
    w = json.loads(data)["w_overall"]
    return [] if w == [17, 36] else [f"intercept w_overall = {w}, expected [17, 36]"]


def help_check(code, data):
    return [] if data.startswith(b"usage:") else ["--help printed no usage line"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Command:
    argv: tuple[str, ...]    # arguments after `ksqkd`
    check: Check
    out: str | None = None   # the file `--out` names; stdout is the output otherwise


@dataclass
class Workload:
    full: list[Command]
    setup: list[Command]


def session_ini(rounds: int, seed: int, noise: str = "", adversary: str = "") -> str:
    return (f"[session]\nrounds = {rounds}\nseed = {seed}\n"
            f"check_fraction = {CHECK_FRACTION}\n{noise}{adversary}")


def simulate_command(work: Path, tag: str, ini: str, extra: tuple, check: Check) -> Command:
    config, out = work / f"{tag}.ini", work / f"{tag}.json"
    config.write_text(ini)
    return Command(("simulate", "--config", str(config), *extra, "--out", str(out)),
                   check, str(out))


def simulate_ball(seed: int, work: Path, rounds: int = SESSION_ROUNDS) -> Workload:
    # `ball_assignment`, not the `assignment` key of the README example,
    # which `load_config` rejects with exit code 2.  The certification
    # verdict is not run: at w_cross = 1/9 it is a coin flip.
    adv = "[adversary]\nkind = ball\nball_assignment = optimal\n"

    def command(tag, n, stats):
        ini = session_ini(n, seed, adversary=adv)
        return simulate_command(work, tag, ini, (), expect_exit({0}, session_check(n, stats)))
    return Workload([command("ball", rounds, ball_stats)],
                    [command("ball-setup", 1, None)])


def simulate_intercept_noisy(seed: int, work: Path, rounds: int = SESSION_ROUNDS) -> Workload:
    p = 0.05
    noise = f"[noise]\nkind = depolarizing\np = {p}\n"
    adv = "[adversary]\nkind = intercept_resend\n"
    full = simulate_command(
        work, "ir", session_ini(rounds, seed, noise, adv), ("--certify",),
        expect_exit({1}, session_check(rounds, intercept_noisy_stats(p))))
    # One round certifies anything; only the report's shape is checked.
    setup = simulate_command(
        work, "ir-setup", session_ini(1, seed, noise, adv), ("--certify",),
        expect_exit({0, 1, 3}, session_check(1, None)))
    return Workload([full], [setup])


def sweep_noise(seed: int, work: Path, rounds: int = SWEEP_ROUNDS) -> Workload:
    def command(tag, n, stats):
        out = work / f"{tag}.csv"
        argv = ("sweep", "--param", "noise.p", "--start", "0", "--stop", "0.3",
                "--points", str(SWEEP_POINTS), "--rounds", str(n), "--seed", str(seed),
                "--check-fraction", str(CHECK_FRACTION), "--out", str(out))
        return Command(argv, expect_exit({0}, sweep_check(SWEEP_POINTS, stats)), str(out))
    return Workload([command("sweep", rounds, True)], [command("sweep-setup", 1, False)])


def structure(seed: int, work: Path) -> Workload:
    # No randomness: the seed is accepted and ignored.
    out = work / "analyze.json"
    full = [Command(("analyze", "--out", str(out)), expect_exit({0}, analyze_check), str(out)),
            Command(("intercept",), expect_exit({0}, intercept_check))]
    return Workload(full, [Command(("--help",), expect_exit({0}, help_check))])


WORKLOADS = {
    "simulate-ball": simulate_ball,
    "simulate-intercept-noisy": simulate_intercept_noisy,
    "sweep-noise": sweep_noise,
    "structure": structure,
}


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    wall_s: float = 0.0
    peak_rss: int = 0        # bytes, the largest child of the pass
    nominal_s: float = 0.0   # wall_s at nominal host speed, see nominal_s()
    summaries: list = field(default_factory=list)


class Runner:
    """Runs ksqkd commands as child processes and checks their output.

    Every child counts as one attempt; a wrong exit code, a failed gate,
    or output that differs from an earlier run of the same command counts
    as one failure.
    """

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[tuple, str] = {}
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run(self, cmd: Command, traced: bool = False) -> tuple[float, int, dict | None]:
        """Run one command; return its wall seconds, peak RSS bytes and trace summary."""
        stdout, stderr = self.work / "stdout", self.work / "stderr"
        summary = self.work / "summary.json"
        for stale in (Path(cmd.out) if cmd.out else stdout, summary):
            stale.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(summary), "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "ksqkd.cli", *cmd.argv]
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        peak_rss = usage.ru_maxrss * 1024  # Linux reports kilobytes

        self.attempted += 1
        problems = self._check(cmd, code, stderr)
        data = None
        if traced:
            try:
                data = json.loads(summary.read_text())
            except (OSError, ValueError):
                problems.append("traced run wrote no summary")
        if problems:
            self.failed += 1
            self.problems += [f"ksqkd {' '.join(cmd.argv)}: {p}" for p in problems]
        return wall, peak_rss, data

    def _check(self, cmd: Command, code: int, stderr: Path) -> list:
        try:
            data = Path(cmd.out).read_bytes() if cmd.out else (self.work / "stdout").read_bytes()
        except OSError:
            return [f"exit code {code}, no output; stderr: {stderr.read_text()[-300:]!r}"]
        try:
            problems = cmd.check(code, data)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        digest = hashlib.sha256(data).hexdigest()
        if self._digests.setdefault(cmd.argv, digest) != digest:
            problems.append("output differs from an earlier run of the same command")
        return problems

    def run_pass(self, commands, traced: bool = False) -> Pass:
        p = Pass()
        for cmd in commands:
            wall, rss, summary = self.run(cmd, traced)
            p.wall_s += wall
            p.peak_rss = max(p.peak_rss, rss)
            if summary is not None:
                p.summaries.append(summary)
        if traced:
            p.wall_s -= sum(s["after_wall_s"] for s in p.summaries)
        return p


def closed_loop(deadline: float, step, at_least: int = 1):
    """Call `step` back to back: `at_least` times, then while one more call,
    as slow as the slowest so far, would end by `deadline` (perf_counter)."""
    results, slowest = [], 0.0
    while True:
        t0 = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        slowest = max(slowest, now - t0)
        if len(results) >= at_least and now + slowest > deadline:
            return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, wl: Workload, deadline: float) -> dict:
    references = [reference_s()]

    def run_pass(commands) -> Pass:
        p = runner.run_pass(commands)
        references.append(reference_s(REFERENCE_SHARE * p.wall_s))
        p.nominal_s = nominal_s(p.wall_s, references[-2], references[-1])
        return p

    # Full passes get the time left once MIN_SETUP_REPEATS setup passes
    # are set aside; further setup passes fill what the full passes leave.
    t0 = time.perf_counter()
    setups = [run_pass(wl.setup)]
    reserve = (MIN_SETUP_REPEATS - 1) * (time.perf_counter() - t0)
    passes = closed_loop(deadline - reserve, lambda: run_pass(wl.full))
    setups += closed_loop(deadline, lambda: run_pass(wl.setup),
                          at_least=MIN_SETUP_REPEATS - 1)
    walls = [p.nominal_s for p in passes]
    rss = [p.peak_rss / 2**20 for p in passes]
    setup = [p.nominal_s for p in setups]
    print(f"  wall_s       {describe(walls, 's')}")
    print(f"  setup_s      {describe(setup, 's')}")
    print(f"  peak_rss_mb  {describe(rss, 'MB')}")
    print(f"  unscaled: wall {statistics.median(p.wall_s for p in passes):.6g} s, setup "
          f"{statistics.median(p.wall_s for p in setups):.6g} s; reference loop "
          f"{describe(references, 's')} (nominal {REFERENCE_NOMINAL_S} s)")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


# Each span gives the metric <span>_s, its inclusive seconds.  The
# substream span only keeps generator creation out of the kernel's self time.
TIMED_SPANS = tuple(name for *_, name in TARGETS if name != "protocol.substream")
COUNTED_SPANS = ("ksset.builtin_ks18", "qcore.exact_born", "kernel.build_tables")


def layer_metrics(summaries: list, rss_growth: float) -> dict:
    """Per-layer metrics of one traced pass (the summaries of its commands).

    `rss_growth` is the untraced peak RSS of a pass less that of its setup
    pass, in bytes.  Spans absent at this commit read as zero.
    `trace.overhead_s` is the tracer's own cost: the measured cost of one
    span times the spans the pass recorded.
    """
    spans: dict[str, dict] = {}
    for s in summaries:
        for name, t in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += t[k]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    m = {}
    for name in TIMED_SPANS:
        m[f"{name}_s"] = (spans.get(name, zero)["s"], "s")
    for name in COUNTED_SPANS:
        m[f"{name}_calls"] = (spans.get(name, zero)["calls"], "count")

    sessions = [x for s in summaries for x in s["sessions"]]
    reports = [x for s in summaries for x in s["reports"]]
    rounds = sum(x["rounds"] for x in sessions)
    rng = sum(s["rng_draw_s"] or 0.0 for s in summaries)
    kernel_s = spans.get("protocol.run_rounds", zero)["self_s"] - rng
    sifted = sum(x["sifted"] for x in reports)
    checks = sum(x["checks"] for x in reports)
    largest = max((x["rounds"] for x in sessions), default=0)
    log_bytes = sum(x["log_bytes"] + x.get("uniform_bytes", 0) for x in sessions)
    per_round = (lambda x: x / rounds) if rounds else (lambda x: 0.0)
    m.update({
        "protocol.rng_draw_s": (rng, "s"),
        "kernel.rounds_s": (kernel_s, "s"),
        "kernel.ns_per_round": (per_round(kernel_s * 1e9), "ns"),
        "protocol.rss_bytes_per_round": (rss_growth / largest if largest else 0.0, "B"),
        "protocol.log_bytes_per_round": (per_round(log_bytes), "B"),
        "protocol.rounds": (rounds, "count"),
        "protocol.sifted": (sifted, "count"),
        "protocol.checks": (checks, "count"),
        "protocol.key_bits_per_round": (per_round(2 * (sifted - checks)), "bit"),
        "trace.overhead_s": (sum(s["span_cost_s"] * s["span_count"] for s in summaries), "s"),
    })
    return m


def traced(runner: Runner, wl: Workload, deadline: float) -> dict:
    setups = [runner.run_pass(wl.setup) for _ in range(2)]
    pairs = closed_loop(deadline, lambda: (runner.run_pass(wl.full),
                                           runner.run_pass(wl.full, traced=True)))
    plain = [p.wall_s for p, _ in pairs]
    growth = (statistics.median(p.peak_rss for p, _ in pairs)
              - statistics.median(p.peak_rss for p in setups))
    per_pass = [layer_metrics(t.summaries, growth) for _, t in pairs]
    m = {name: (statistics.median(x[name][0] for x in per_pass), unit)
         for name, (_, unit) in per_pass[0].items()}
    absent = sorted({a for _, t in pairs for s in t.summaries for a in s["absent"]})
    for name, (value, unit) in m.items():
        note = " (computed from array sizes)" if name == "protocol.log_bytes_per_round" else ""
        print(f"  {name:<40} {value:.6g} {unit}{note}")
    print(f"  medians of {len(pairs)} traced passes; absent spans: {', '.join(absent) or 'none'}")
    # The wall-time difference is shown for reference only: it is one
    # pass's noise apart from the tracer's cost unless it beats the spread.
    diff = statistics.median(t.wall_s for _, t in pairs) - statistics.median(plain)
    spread = max(plain) - min(plain)
    verdict = "unresolved" if len(pairs) < 2 or abs(diff) <= spread else "resolved"
    print(f"  traced less untraced wall: {diff:+.4g} s over {len(pairs)} pairs, untraced"
          f" passes span {spread:.4g} s ({verdict})")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    if not (ROOT / "src" / "ksqkd" / "cli.py").is_file():
        print(f"error: no ksqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        # Warm-up: compiles the bytecode caches, and proves the program runs.
        runner.run(Command(("--help",), expect_exit({0}, help_check)))
        if runner.failed:
            print("error: ksqkd does not start:", *runner.problems, sep="\n  ", file=sys.stderr)
            return 1
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
              "closed loop, one client, one command at a time")
        measure = traced if args.trace else end_to_end
        metrics = measure(runner, wl, deadline)

    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"  failed_frac  {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4g}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
