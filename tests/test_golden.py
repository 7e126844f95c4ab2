"""Every command's stdout and exit code, byte for byte, against stored files.

``tests/golden/<name>.out`` holds the stdout of each case below and
``tests/golden/exit_codes.json`` its exit code; the 10^6-round sessions
are held as a digest of stdout instead.  Each bad input exits
with no stdout; ``tests/golden/bad_input.json`` holds its exit code and
stderr, with the checkout path written as ``<checkout>``.  The files are
written once from a trusted tree with
``PYTHONPATH=src python tests/test_golden.py`` and only compared
afterwards.

Every case runs in-process, under this interpreter's random string-hash
seed, and again in one child in ``steering.GOLDEN_ENV``: an ASCII locale,
a BLAS pool of 4 threads, hash seed 0 and a warning on any ``open`` that
takes the locale's encoding.  Every other child here runs in that
environment too:

- every case of the commands that need only exact arithmetic, golden and
  bad input, and ``--help``, in a child of a bare venv, one with nothing
  installed, with ``PYTHONPATH`` set to ``src`` alone and ``dataclasses``
  unimportable too;
- every ``simulate`` and ``sweep`` case with ``dataclasses`` unimportable;
- the NumPy commands' OpenSSL children and ``python -m ksqkd.cli``.

No module of the package may hold a check that ``python -O`` strips.
"""

import ast
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ksqkd.cli import main
from steering import GOLDEN_ENV, SRC, child_env

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
    # A non-ASCII basis label in a failure line prints escaped.
    "verify-non-ascii": ["verify", "--set", str(GOLDEN / "non-ascii.ks")],
    # Reports name vectors by the file's ids, whatever order they come in.
    "verify-reversed": ["verify", "--set", str(GOLDEN / "reversed.ks")],
    "mismatch-permuted-reversed": ["mismatch", "--set",
                                   str(GOLDEN / "permuted-reversed.ks")],
    "color-colorable": ["color", "--set", str(GOLDEN / "colorable.ks")],
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
def test_output_matches_golden(name):
    assert_golden(name, *run_case(name))


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
def test_output_matches_golden_digest(name):
    assert_golden(name, *run_case(name))


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
    "set-vector-in-no-basis": ["verify", "--set", str(BAD / "unnamed-vector.ks")],
    "set-repeated-ray": ["mismatch", "--set", str(BAD / "repeated-ray.ks")],
    "set-garbage": ["verify", "--set", str(BAD / "garbage.ks")],
    "set-three-word-head": ["color", "--set", str(BAD / "three-word-head.ks")],
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
    # The last point's seed, 2**64, needs 65 bits.
    "sweep-seed-last-point": [*SWEEP, "--seed", str(2**64 - 2)],
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


def bad_input_row(code, out, err):
    """A bad input's row: its exit code and its stderr with the checkout
    path as a placeholder.  Its stdout must be empty."""
    assert out == ""
    return {"code": code, "stderr": err.replace(CHECKOUT, "<checkout>")}


def run_bad_input(argv):
    return bad_input_row(*run_in_process(argv))


def run_case(name):
    """(exit code, stdout, stderr) of case `name` run in-process, with
    stdout as its SHA-256 for a digest case."""
    if name in DIGEST_CASES:
        code, out, err = run_in_process(DIGEST_CASES[name][0])
        return code, hashlib.sha256(out.encode()).hexdigest(), err
    return run_in_process({**CASES, **BAD_CASES}[name])


def assert_golden(name, code, out, err):
    """Case `name` gave its stored exit code, stdout (or digest) and stderr:
    the bad input row, or else no stderr at all."""
    if name in BAD_CASES:
        golden = json.loads((GOLDEN / "bad_input.json").read_text())
        assert bad_input_row(code, out, err) == golden[name]
        return
    if name in DIGEST_CASES:
        _, want_out, want_code = DIGEST_CASES[name]
    else:
        want_out = (GOLDEN / f"{name}.out").read_text()
        want_code = json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert err == ""
    assert out == want_out
    assert code == want_code


@pytest.mark.parametrize("name", BAD_CASES)
def test_bad_input_matches_golden(name):
    assert_golden(name, *run_case(name))


@pytest.mark.parametrize("name", BAD_CASES)
def test_bad_input_prints_one_error_line(name):
    stderr = run_bad_input(BAD_CASES[name])["stderr"]
    assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr[-1] == "\n"


# Runs the CLI in a fresh interpreter in which importing any module that
# its first argument names, comma-separated, fails.
WITHOUT = """\
import sys
for name in sys.argv.pop(1).split(","):
    sys.modules[name] = None
from ksqkd.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_without(modules: str, argv, python=sys.executable, **kwargs):
    return subprocess.run([python, "-c", WITHOUT, modules, *argv],
                          capture_output=True, text=True, **kwargs)


# Only these commands need NumPy.  Every other case, golden or bad input,
# runs on a bare interpreter.
NUMPY_COMMANDS = ("simulate", "sweep")
BARE_CASES = {
    **{name: argv for name, argv in {**CASES, **BAD_CASES}.items()
       if argv[0] not in NUMPY_COMMANDS},
    "--help": ["--help"],
}


@pytest.fixture(scope="module")
def bare_python(tmp_path_factory):
    """The interpreter of a venv with nothing installed: its path holds
    only the standard library, and user site-packages are off."""
    venv = tmp_path_factory.mktemp("bare")
    subprocess.run([sys.executable, "-m", "venv", "--without-pip", str(venv)], check=True)
    return str(venv / "bin" / "python")


@pytest.mark.parametrize("name", BARE_CASES)
def test_exact_commands_run_without_numpy(bare_python, tmp_path, name):
    # In-process runs write to a UTF-8 capture; here stdout is ASCII.  The
    # child's path gets `src` and, from its working directory, nothing.
    proc = run_without("numpy,dataclasses", BARE_CASES[name], bare_python, cwd=tmp_path,
                       env=child_env(PYTHONPATH=SRC, **GOLDEN_ENV))
    if name == "--help":
        assert (proc.returncode, proc.stderr) == (0, "")
    else:
        assert_golden(name, proc.returncode, proc.stdout, proc.stderr)


# The NumPy commands declare their records as the exact ones do, with no
# `dataclasses`.
@pytest.mark.parametrize("name", [name for name, argv in CASES.items()
                                  if argv[0] in NUMPY_COMMANDS])
def test_numpy_commands_run_without_dataclasses(name):
    proc = run_without("dataclasses", CASES[name], env=child_env(**GOLDEN_ENV))
    assert_golden(name, proc.returncode, proc.stdout, proc.stderr)


# Prints, as one JSON object, `run_case` of every case above, run in a
# child whose path has this directory first.
EVERY_CASE = """\
import json
import sys
sys.path.insert(0, sys.argv[1])
from test_golden import BAD_CASES, CASES, DIGEST_CASES, run_case
print(json.dumps({name: run_case(name) for name in [*CASES, *DIGEST_CASES, *BAD_CASES]}))
"""


@pytest.fixture(scope="module")
def golden_env_results():
    proc = subprocess.run([sys.executable, "-c", EVERY_CASE, str(GOLDEN.parent)],
                          capture_output=True, text=True, env=child_env(**GOLDEN_ENV))
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", [*CASES, *DIGEST_CASES, *BAD_CASES])
def test_golden_env_child_matches_golden(golden_env_results, name):
    assert_golden(name, *golden_env_results[name])


# `python -O` strips every `assert` and makes `__debug__` False, so a check
# in the package written with either one would vanish under it.
def test_package_has_no_check_that_python_O_strips():
    stripped = [
        f"{path.name}:{node.lineno}"
        for path in sorted((Path(SRC) / "ksqkd").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert stripped == []


# Runs its first argument, then the CLI with its report to a file, then
# prints whether OpenSSL's `_hashlib` is loaded and whether libcrypto is
# mapped, None where there is no /proc/self/maps.
OPENSSL = """\
import sys
from pathlib import Path
exec(sys.argv.pop(1))
from ksqkd.cli import main
code = main(sys.argv[1:])
maps = Path("/proc/self/maps")
print(code, sys.modules.get("_hashlib") is not None,
      b"libcrypto" in maps.read_bytes() if maps.exists() else None)
"""
MAPS = Path("/proc/self/maps").exists()


def run_openssl(tmp_path, preamble, name):
    """The child's OpenSSL state, as printed, after checking that its report
    and exit code are case `name`'s golden ones and its stderr is empty."""
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", OPENSSL, preamble, *CASES[name],
                           "--out", str(out)],
                          capture_output=True, text=True, env=child_env(**GOLDEN_ENV))
    assert proc.stderr == ""
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()
    code, *state = proc.stdout.split()
    assert int(code) == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    return state


# No command hashes anything, so the NumPy commands run without OpenSSL,
# and write the bytes the in-process runs write with it loaded.
@pytest.mark.parametrize("name", ["simulate-intercept-noisy-100k", "sweep"])
def test_numpy_commands_load_no_openssl(tmp_path, name):
    assert run_openssl(tmp_path, "", name) == ["False", "False" if MAPS else "None"]


def test_process_holding_openssl_keeps_it(tmp_path):
    state = run_openssl(tmp_path, "import hashlib", "simulate-intercept-noisy-100k")
    assert state == ["True", "True" if MAPS else "None"]


# Without OpenSSL, `hashlib` would log an error to stderr for the missing md5.
def test_missing_builtin_digest_loads_openssl(tmp_path):
    state = run_openssl(tmp_path, "sys.modules['_md5'] = None",
                        "simulate-intercept-noisy-100k")
    assert state[0] == "True"


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
                          capture_output=True, env=child_env(**GOLDEN_ENV))
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
