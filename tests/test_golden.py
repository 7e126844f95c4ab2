"""Every command's stdout and exit code, byte for byte, against stored files.

``tests/golden/<name>.out`` holds the stdout of each case below and
``tests/golden/exit_codes.json`` its exit code.  The files are written
once from a trusted tree with ``PYTHONPATH=src python tests/test_golden.py``
and only compared afterwards.
"""

import json
import sys
from pathlib import Path

import pytest

from ksqkd.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify": ["verify"],
    "color": ["color"],
    "mismatch": ["mismatch"],
    "analyze": ["analyze"],
    "intercept": ["intercept"],
    **{
        f"simulate-{name}": ["simulate", "--certify", "--seed", "5",
                             "--config", str(GOLDEN / f"{name}.ini")]
        for name in ("ideal", "ball", "intercept-noisy")
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
