"""Hand-built uniform draws that steer the round kernel to chosen rounds,
grids of them that reach every round there is, a whole session's log and
report text in one call each, ball labelings with chosen defects, and the
environment and runner of a child process that runs the CLI."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ksqkd import kernel, ksset, protocol
from ksqkd.adversary import AdversarySpec
from ksqkd.channels import NoiseSpec
from ksqkd.ksset import SymbolAssignment


def centre(index, count):
    """The uniform in the middle of bin `index` of `count` equal bins."""
    return (np.asarray(index, dtype=float) + 0.5) / count


def basis_index(ks, label):
    """The index of the basis labelled `label` in `ks.bases`."""
    return [b.label for b in ks.bases].index(label)


def sending(ks, vector_id):
    """Alice's two draws that send `vector_id` from its first home basis."""
    label, pos = ks.incidence[vector_id][0]
    return centre(basis_index(ks, label), len(ks.bases)), centre(pos, 4)


MID = [0.5]  # a draw column the scenario never reads


def cells(count):
    """The midpoint uniform of each of ``count`` equal cells of [0, 1)."""
    return centre(np.arange(count), count)


def every_cell(ua0, ua1, ub0, ub1, un0, un1, ue0, ue1):
    """One round per combination of the given uniforms of each draw column.

    Each argument lists the values its column takes; the rounds run over
    their whole product.  Returns (ua, ub, un, ue).
    """
    cols = [c.ravel() for c in np.meshgrid(
        ua0, ua1, ub0, ub1, un0, un1, ue0, ue1, indexing="ij")]
    return tuple(np.column_stack(cols[i:i + 2]) for i in range(0, 8, 2))


def draws(ua, ub, un, ue):
    """The ``draw`` callable of ``kernel.simulate_rounds`` for given uniforms."""
    return {"alice": ua, "bob": ub, "noise": un, "adversary": ue}.__getitem__


def steer(ks, ua0, ua1, ub0, ub1, un0=0.5, un1=0.5, ue0=0.5, ue1=0.5,
          adversary=AdversarySpec(), noise=NoiseSpec()):
    """Kernel columns for rounds whose draws are given column by column.

    Each argument broadcasts to the common round count: ``ua0``/``ub0``
    pick Alice's and Bob's basis, ``ua1`` Alice's position, ``ub1`` Bob's
    Born outcome, ``un0``/``un1`` the noise draw and ``ue0``/``ue1`` the
    adversary's.
    """
    cols = np.broadcast_arrays(*(
        np.asarray(c, dtype=float) for c in (ua0, ua1, ub0, ub1, un0, un1, ue0, ue1)
    ))
    ua, ub, un, ue = (np.column_stack(cols[i:i + 2]) for i in range(0, 8, 2))
    return kernel.simulate_rounds(
        kernel.build_tables(ks), adversary, noise, draws(ua, ub, un, ue)
    )


def session_log(config):
    """Every round of a session on the builtin set, as one log."""
    tables = kernel.build_tables(ksset.builtin_ks18())
    return protocol.run_rounds(config, tables, protocol.substreams(config.seed),
                               0, config.rounds)


def report_text(report):
    """The text ``report.to_json`` writes."""
    out = io.StringIO()
    report.to_json(out)
    return out.getvalue()


def make_assignment_with_defects(ks, witness, extra: int) -> SymbolAssignment:
    """Perturb the optimal witness to add `extra` defective vectors."""
    symbols = dict(witness.symbols)
    base = ksset.defective_vectors(ks, witness)
    for b in ks.bases:
        syms = list(symbols[b.label])
        # swapping two positions flips consistency of the vectors there
        for i, j in ((0, 1), (2, 3), (0, 2), (1, 3)):
            trial = dict(symbols)
            s = list(syms)
            s[i], s[j] = s[j], s[i]
            trial[b.label] = tuple(s)
            cand = SymbolAssignment(trial)
            if len(ksset.defective_vectors(ks, cand)) == len(base) + extra:
                return cand
    raise AssertionError(f"no perturbation adds exactly {extra} defects")


SRC = str(Path(__file__).resolve().parents[1] / "src")
RUNNER = str(Path(__file__).with_name("cli_runner.py"))

# The environment of every child that runs the CLI: an ASCII locale (C, no
# UTF-8 coercion or mode), a BLAS pool of 4 threads where the CLI would start
# one, hash seed 0 where the test process's is random, and two warnings on
# stderr, which each test holds to its expected text: an EncodingWarning from
# an `open` that takes the locale's encoding, and in development mode the
# ResourceWarning of a file left open.
GOLDEN_ENV = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
              "OPENBLAS_NUM_THREADS": "4", "PYTHONHASHSEED": "0",
              "PYTHONWARNDEFAULTENCODING": "1", "PYTHONDEVMODE": "1"}


def child_env(**extra):
    """This process's environment with the checkout's `src` first on
    PYTHONPATH, then `GOLDEN_ENV`, then `extra`, for a child that runs the
    CLI.  A variable given as None is left unset."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else ""),
           **GOLDEN_ENV, **extra}
    return {name: value for name, value in env.items() if value is not None}


def cli_child(runs, python=sys.executable, cwd=None, env=None, **request):
    """The reply of a child that ran `cli_runner.py` on `runs`, {name: argv},
    and `request`, in `env` or else `child_env()`, and exited 0 silently."""
    proc = subprocess.run([python, RUNNER], input=json.dumps({"runs": runs, **request}),
                          capture_output=True, text=True, cwd=cwd, env=env or child_env())
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return json.loads(proc.stdout)
