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

# (workload, --trace) of each benchmark run whose gates are checked.
GATE_RUNS = (
    ("simulate-ball", 0), ("simulate-intercept-noisy", 0), ("sweep-noise", 0),
    ("structure", 0), ("simulate-ball", 1), ("structure", 1),
    ("simulate-intercept-noisy", 1),
)


def golden_tests_under_fixed_hash_seeds() -> bool:
    """The golden tests with string-hash randomisation off (0) and fixed."""
    return all(
        subprocess.run([sys.executable, "-m", "pytest", "-q", "tests/test_golden.py"],
                       cwd=ROOT, env={**os.environ, "PYTHONPATH": SRC,
                                      "PYTHONHASHSEED": seed}).returncode == 0
        for seed in ("0", "12345")
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
    line: correct, and no operation failed."""
    ok = True
    for workload, trace in GATE_RUNS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "5", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"] is True and result["failed"] == 0
    return ok


STEPS = {step.__name__: step for step in (
    golden_tests_under_fixed_hash_seeds,
    bounded_memory_at_4e7_rounds,
    benchmark_gates_on_every_workload,
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
