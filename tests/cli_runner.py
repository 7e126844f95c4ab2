"""The one runner of the CLI in tests: in-process in the test process, and
in every child that runs a case.  It needs only the standard library and
imports the CLI as it first runs it, so a child can run it on a bare
interpreter or with a module blocked that pytest itself needs.

    PYTHONPATH=src python tests/cli_runner.py < request.json

reads {"runs": {name: argv}, "digest": [name], "block": [module],
"preload": [module]}, blocks then imports the modules named, and prints
{"runs": {name: run(argv, name in digest)}, "state": process_state()}.
"""

import contextlib
import importlib
import io
import json
import os
import sys
from pathlib import Path


def run(argv, digest=False):
    """(exit code, stdout, stderr) of `main(argv)`, SystemExit included,
    with stdout as its SHA-256 when `digest`."""
    from ksqkd.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if digest:
        import hashlib

        return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def process_state():
    """Whether OpenSSL's `_hashlib`, `numpy` and `dataclasses` are loaded
    and libcrypto mapped, the thread count and OPENBLAS_NUM_THREADS; None
    for a file /proc lacks."""
    maps, task = Path("/proc/self/maps"), Path("/proc/self/task")
    return {**{name: sys.modules.get(name) is not None
               for name in ("_hashlib", "numpy", "dataclasses")},
            "libcrypto": b"libcrypto" in maps.read_bytes() if maps.exists() else None,
            "threads": len(os.listdir(task)) if task.is_dir() else None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


if __name__ == "__main__":
    request = json.load(sys.stdin)
    sys.modules.update(dict.fromkeys(request.get("block", ())))
    for name in request.get("preload", ()):
        importlib.import_module(name)
    digest = request.get("digest", ())
    runs = {name: run(argv, name in digest) for name, argv in request["runs"].items()}
    json.dump({"runs": runs, "state": process_state()}, sys.stdout)
