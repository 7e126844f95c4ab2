"""Every command's stdout and exit code, byte for byte, against stored files.

``tests/golden/<name>.out`` holds the stdout of each case below and
``tests/golden/exit_codes.json`` its exit code; the 10^6-round sessions
are held as a digest of stdout instead.  Each bad input exits
with no stdout; ``tests/golden/bad_input.json`` holds its exit code and
stderr, with the checkout path written as ``<checkout>``.  The files are
written once from a trusted tree with
``PYTHONPATH=src python tests/test_golden.py`` and only compared
afterwards.  The commands that need only exact arithmetic must give the
same output with NumPy and ``dataclasses`` unimportable.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ksqkd.cli import main

GOLDEN = Path(__file__).parent / "golden"
CHECKOUT = str(GOLDEN.parent.parent)

CASES = {
    "verify": ["verify"],
    "color": ["color"],
    "mismatch": ["mismatch"],
    "analyze": ["analyze"],
    "intercept": ["intercept"],
    # The builtin set in another basis order, with its positions shuffled.
    "mismatch-permuted": ["mismatch", "--set", str(GOLDEN / "permuted.ks")],
    "color-permuted": ["color", "--set", str(GOLDEN / "permuted.ks")],
    # Basis I repeated as a tenth basis: parity bound 0, minimum 2.
    "mismatch-repeated": ["mismatch", "--set", str(GOLDEN / "repeated.ks")],
    **{
        f"simulate-{name}": ["simulate", "--certify", "--seed", "5",
                             "--config", str(GOLDEN / f"{name}.ini")]
        for name in ("ideal", "ball", "intercept-noisy")
    },
    # 10^5 rounds span 13 chunks of protocol.CHUNK_ROUNDS.
    **{
        f"simulate-{name}-100k": ["simulate", "--certify", "--seed", "5",
                                  "--config", str(GOLDEN / f"{name}-100k.ini")]
        for name in ("ball", "intercept-noisy")
    },
    "sweep": ["sweep", "--start", "0", "--stop", "0.3", "--points", "4",
              "--rounds", "10000"],
}


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]


# 10^6-round sessions, tens of chunks of protocol.CHUNK_ROUNDS, held
# as the SHA-256 of stdout and the exit code.  The digests were taken
# once from a trusted tree and are never regenerated.
DIGEST_CASES = {
    "simulate-ball-1m": (
        ["simulate", "--certify", "--seed", "3",
         "--config", str(GOLDEN / "ball-1m.ini")],
        "74925dc4035e82dbb43d0a5a35977f75c230da8e839cac4bba3212be31688557", 0,
    ),
    "simulate-intercept-noisy-1m": (
        ["simulate", "--certify", "--seed", "7",
         "--config", str(GOLDEN / "intercept-noisy-1m.ini")],
        "54d8ec3fc7d45e87f98176df3684079d33fb7a4a77db462e2fb8ce8ca4031cfa", 1,
    ),
}


@pytest.mark.parametrize("name", DIGEST_CASES)
def test_output_matches_golden_digest(capsys, name):
    argv, digest, want_code = DIGEST_CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert code == want_code


# A report is written in pieces, its keys a chunk at a time: `--out` must
# get the bytes stdout gets, over many chunks and when both keys are empty.
@pytest.mark.parametrize("name", ["simulate-ball-100k", "simulate-intercept-noisy-100k",
                                  "empty-keys"])
def test_out_file_matches_stdout(capsys, tmp_path, name):
    if name == "empty-keys":
        config = tmp_path / "checks-only.ini"
        config.write_text("[session]\nrounds = 20000\ncheck_fraction = 1.0\n")
        argv = ["simulate", "--certify", "--config", str(config)]
    else:
        argv = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    path = tmp_path / "report.json"
    assert main([*argv, "--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    if name == "empty-keys":
        assert doc["key_alice"] == doc["key_bob"] == "" and doc["rounds_sifted"] > 0


BAD = GOLDEN / "bad"
MISSING = GOLDEN / "missing"  # never created
SWEEP = ["sweep", "--start", "0", "--stop", "0.3", "--points", "3", "--rounds", "100"]
BAD_CASES = {
    "set-zero-vector": ["verify", "--set", str(BAD / "zero.ks")],
    "set-non-utf8": ["color", "--set", str(BAD / "binary.ks")],
    "set-missing": ["mismatch", "--set", str(MISSING / "set.ks")],
    "set-directory": ["verify", "--set", str(BAD)],
    **{
        f"config-{name}": ["simulate", "--certify", "--config", str(path)]
        for name, path in (
            ("bad-rounds", BAD / "rounds.ini"),
            ("missing-assignment", BAD / "assignment.ini"),
            ("unknown-section", BAD / "section.ini"),
            ("default", BAD / "default.ini"),  # not a section of defaults
            ("missing", MISSING / "config.ini"),
            ("noise-without-kind", BAD / "noise.ini"),
            ("assignment-without-ball", BAD / "assignment-without-ball.ini"),
            ("optimal-without-ball", BAD / "optimal-without-ball.ini"),  # no file
            ("no-section", BAD / "no-section.ini"),  # configparser's error spans lines
            ("key-without-value", BAD / "key-without-value.ini"),
            ("percent", BAD / "percent.ini"),  # a literal `%`, not interpolation
            ("ball-noise", BAD / "ball-noise.ini"),  # the ball ignores noise
            # NaN fails every comparison, so a range check must reject it.
            ("check-fraction-nan", BAD / "check-fraction-nan.ini"),
            ("p-nan", BAD / "p-nan.ini"),
            ("rounds-nan", BAD / "rounds-nan.ini"),
        )
    },
    **{
        f"out-{argv[0]}": [*argv, "--out", str(MISSING / "out.txt")]
        for argv in (
            ["analyze"],
            ["simulate", "--certify", "--config", str(GOLDEN / "ideal.ini")],
            SWEEP,
        )
    },
    "sweep-param": [*SWEEP, "--param", "noise.q"],
    "sweep-range": [*SWEEP, "--start", "0.5", "--stop", "0.1"],
    "sweep-points": [*SWEEP, "--points", "1"],
    "sweep-rounds": [*SWEEP, "--rounds", "0"],
    "sweep-check-fraction": [*SWEEP, "--check-fraction", "2"],
    "sweep-seed": [*SWEEP, "--seed", "-1"],
    "sweep-start-nan": [*SWEEP, "--start", "nan"],
    "sweep-check-fraction-nan": [*SWEEP, "--check-fraction", "nan"],
}


def run_in_process(argv):
    """(exit code, stdout, stderr) of `main(argv)`, SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_bad_input(argv):
    """(exit code, stderr with the checkout path as a placeholder)."""
    code, out, err = run_in_process(argv)
    assert out == ""
    return {"code": code, "stderr": err.replace(CHECKOUT, "<checkout>")}


@pytest.mark.parametrize("name", BAD_CASES)
def test_bad_input_matches_golden(name):
    golden = json.loads((GOLDEN / "bad_input.json").read_text())
    assert run_bad_input(BAD_CASES[name]) == golden[name]


@pytest.mark.parametrize("name", BAD_CASES)
def test_bad_input_prints_one_error_line(name):
    stderr = run_bad_input(BAD_CASES[name])["stderr"]
    assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr[-1] == "\n"


# Runs the CLI in a fresh interpreter in which `import numpy` and
# `import dataclasses` fail.
NO_NUMPY = """\
import sys
sys.modules["numpy"] = None
sys.modules["dataclasses"] = None
from ksqkd.cli import main
sys.exit(main(sys.argv[1:]))
"""


def child_env():
    """This process's environment with the checkout's `src` first on
    PYTHONPATH, for a child that runs the CLI."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_without_numpy(argv):
    return subprocess.run([sys.executable, "-c", NO_NUMPY, *argv],
                          capture_output=True, text=True, env=child_env())


@pytest.mark.parametrize("name", ["verify", "color", "mismatch", "analyze", "intercept",
                                  "mismatch-permuted", "color-permuted",
                                  "mismatch-repeated"])
def test_exact_commands_run_without_numpy(name):
    proc = run_without_numpy(CASES[name])
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text()
    assert proc.returncode == json.loads((GOLDEN / "exit_codes.json").read_text())[name]


def test_help_runs_without_numpy():
    proc = run_without_numpy(["--help"])
    assert proc.returncode == 0, proc.stderr


# `python -m ksqkd.cli` is how a shell runs the CLI: unlike the in-process
# runs above, the interpreter exits after `main` returns or raises
# SystemExit, and runs the exit hook `main` registers.  Its stdout (or
# --out file) must be the golden, its stderr that of an in-process run,
# and its exit code the stored one.  argparse's own exits
# have no stored file, since its help text differs between Python
# versions: they are held to the in-process run and to argparse's codes.
OUT = "<out>"  # replaced by a file in the test's temporary directory
ENTRY_CASES = {
    "analyze": ["analyze", "--out", OUT],
    "intercept": CASES["intercept"],
    "simulate-intercept-noisy": CASES["simulate-intercept-noisy"],
    "sweep": CASES["sweep"],
    "config-missing": BAD_CASES["config-missing"],
    "help": ["--help"],
    "no-command": [],
}
ARGPARSE_CODES = {"help": 0, "no-command": 2}


@pytest.mark.parametrize("name", ENTRY_CASES)
def test_process_entry_matches_golden(monkeypatch, tmp_path, name):
    out = tmp_path / "out.txt"
    argv = [str(out) if arg == OUT else arg for arg in ENTRY_CASES[name]]
    # argparse wraps its help to COLUMNS, or else to the terminal's width.
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout, stderr = run_in_process(argv)
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "ksqkd.cli", *argv],
                          capture_output=True, env=child_env())
    if name in ARGPARSE_CODES:
        want = ARGPARSE_CODES[name], stdout.encode()
    elif name in BAD_CASES:
        want = json.loads((GOLDEN / "bad_input.json").read_text())[name]["code"], b""
    else:
        want = (json.loads((GOLDEN / "exit_codes.json").read_text())[name],
                (GOLDEN / f"{name}.out").read_bytes())
    if OUT in ENTRY_CASES[name]:
        assert proc.stdout == b""
        written = out.read_bytes()
    else:
        written = proc.stdout
    assert (proc.returncode, written) == want
    assert code == proc.returncode
    assert proc.stderr.decode() == stderr


if __name__ == "__main__":
    codes = {}
    for name, argv in CASES.items():
        stdout, sys.stdout = sys.stdout, open(GOLDEN / f"{name}.out", "w")
        try:
            codes[name] = main(argv)
        finally:
            sys.stdout.close()
            sys.stdout = stdout
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    bad = {name: run_bad_input(argv) for name, argv in BAD_CASES.items()}
    (GOLDEN / "bad_input.json").write_text(json.dumps(bad, indent=2) + "\n")
