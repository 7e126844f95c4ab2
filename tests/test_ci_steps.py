"""The CI workflow runs its multi-command steps from ``tests/ci_steps.py``."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import ci_steps

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
SCRIPT = Path(ci_steps.__file__)


def test_workflow_and_script_name_the_same_steps():
    text = WORKFLOW.read_text()
    called = re.findall(r"^ *- name: (.*)\n *run: python tests/ci_steps\.py (\w+)$",
                        text, re.M)
    assert sorted(step for _, step in called) == sorted(ci_steps.STEPS)
    for name, step in called:
        assert name == step.replace("_", " ")
    # Every other step is one command.
    assert "run: |" not in text and text.count("python tests/ci_steps.py") == len(called)


def test_script_needs_only_the_standard_library():
    imported = {
        alias.name.split(".")[0] if isinstance(node, ast.Import) else node.module.split(".")[0]
        for node in ast.walk(ast.parse(SCRIPT.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported <= sys.stdlib_module_names


def test_unknown_step_exits_2():
    proc = subprocess.run([sys.executable, str(SCRIPT), "no_such_step"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("unknown step 'no_such_step'")
