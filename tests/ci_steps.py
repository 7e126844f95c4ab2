"""The steps of the CI workflow that take more than one command.

Each function is one step of ``.github/workflows/tests.yml``, named as the
step is with underscores for spaces, and returns whether the step passed.
Run them from any directory, on the standard library alone:

    python tests/ci_steps.py [STEP ...]

With no STEP, every step runs.  The exit status is 0 if every step named
passed, 1 if one failed and 2 for an unknown step.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# A session's peak RSS must not grow with its round count: 4x10^7 rounds,
# to stdout or to a file, stay within this many MB.
MEMORY_LIMIT_MB = 50
LONG_ROUNDS = 40_000_000

# Builds Peres' 24 rays and 24 tetrads as a set, and prints the
# defect-subset oracle's minimum mismatch on it, searched up to 4; a
# larger minimum raises.
PERES24 = """\
from ksqkd import ksset
import oracles
from test_ksset import peres24
rays, tetrads = peres24()
ks = ksset.build_set([(f"T{i}", tuple(rays[v] for v in t)) for i, t in enumerate(tetrads)])
print(oracles.defect_subset_min_mismatch(ks, 4))
"""

# (workload, --trace) of each benchmark run whose gates are checked.
GATE_RUNS = (
    ("simulate-ball", 0), ("simulate-intercept-noisy", 0), ("sweep-noise", 0),
    ("structure", 0), ("simulate-ball", 1), ("structure", 1),
    ("simulate-intercept-noisy", 1),
)


def bounded_memory_at_4e7_rounds() -> bool:
    """Both kernel branches, ball and intercept-plus-noise, at 4x10^7
    rounds, each to stdout and to --out, exit 0 within the RSS limit."""
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for config in ("intercept-noisy", "ball"):
            text = (ROOT / "tests" / "golden" / f"{config}.ini").read_text()
            text, count = re.subn(r"(?m)^rounds = .*$", f"rounds = {LONG_ROUNDS}", text)
            if count != 1:
                raise ValueError(f"{config}.ini: expected one rounds line, found {count}")
            longer = Path(tmp) / f"{config}-longer"
            longer.with_suffix(".ini").write_text(text)
            argv = [sys.executable, "-m", "ksqkd.cli", "simulate",
                    "--config", str(longer.with_suffix(".ini"))]
            for extra in ([], ["--out", str(longer.with_suffix(".json"))]):
                child = subprocess.Popen(argv + extra, stdout=subprocess.DEVNULL,
                                         env={**os.environ, "PYTHONPATH": SRC})
                _, status, usage = os.wait4(child.pid, 0)
                code, mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
                print(f"{config} {' '.join(extra) or 'stdout'}: exit {code}, "
                      f"peak RSS {mb:.1f} MB (limit {MEMORY_LIMIT_MB} MB)", flush=True)
                ok = ok and code == 0 and mb <= MEMORY_LIMIT_MB
    return ok


def benchmark_gates_on_every_workload() -> bool:
    """Each run of `perfbench/run.py` reports its gates passed on its last
    line: correct, and no operation failed.
    A run whose last line is no such result fails, and the next one runs."""
    ok = True
    for workload, trace in GATE_RUNS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "5", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
            passed = result["correct"] is True and result["failed"] == 0
        except (IndexError, KeyError, TypeError, ValueError):
            print(f"{workload} --trace {trace}: exit {proc.returncode} with no result line",
                  file=sys.stderr, flush=True)
            passed = False
        ok = ok and passed
    return ok


def peres24_oracle_minimum() -> bool:
    """The defect-subset oracle in `tests/oracles.py` finds minimum mismatch
    4 on Peres' 24 rays in their 24 tetrads."""
    proc = subprocess.run([sys.executable, "-c", PERES24], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              (SRC, str(ROOT / "tests")))})
    print(f"Peres-24 minimum mismatch: {proc.stdout.strip() or 'none'}, "
          f"exit {proc.returncode}", flush=True)
    return proc.returncode == 0 and proc.stdout == "4\n"


STEPS = {step.__name__: step for step in (
    bounded_memory_at_4e7_rounds,
    benchmark_gates_on_every_workload,
    peres24_oracle_minimum,
)}


def main(names) -> int:
    if unknown := [name for name in names if name not in STEPS]:
        print(f"unknown step {unknown[0]!r}; steps: {', '.join(STEPS)}", file=sys.stderr)
        return 2
    failed = [name for name in names or STEPS if not STEPS[name]()]
    for name in failed:
        print(f"step failed: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
