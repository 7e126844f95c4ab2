"""The CI workflow runs its multi-command steps from ``tests/ci_steps.py``,
whose benchmark step reads every run's result, or its lack of one."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def benchmark_stub(monkeypatch, outputs):
    """Makes the benchmark runs print `outputs` in turn, and returns the
    list the runs' argv are appended to."""
    calls = []

    def run(argv, **kwargs):
        calls.append(argv)
        stdout = outputs[len(calls) - 1]
        return subprocess.CompletedProcess(argv, 0, stdout=stdout)

    monkeypatch.setattr(ci_steps.subprocess, "run", run)
    return calls


PASSED = 'workload w\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n'


@pytest.mark.parametrize("bad", ["", "workload w\nTraceback\n", '{"correct": true}\n'],
                         ids=["no-output", "no-json", "no-failed-count"])
def test_benchmark_run_without_result_fails_and_the_rest_run(monkeypatch, capsys, bad):
    outputs = [PASSED] * len(ci_steps.GATE_RUNS)
    outputs[1] = bad
    calls = benchmark_stub(monkeypatch, outputs)
    assert ci_steps.benchmark_gates_on_every_workload() is False
    assert len(calls) == len(ci_steps.GATE_RUNS)
    workload, trace = ci_steps.GATE_RUNS[1]
    assert capsys.readouterr().err.startswith(f"{workload} --trace {trace}: exit ")


@pytest.mark.parametrize("result, passed", [
    ('{"correct": true, "failed": 0}', True),
    ('{"correct": false, "failed": 0}', False),
    ('{"correct": true, "failed": 1}', False),
])
def test_benchmark_gates_read_the_last_line(monkeypatch, capsys, result, passed):
    benchmark_stub(monkeypatch, [f"workload w\n{result}\n"] * len(ci_steps.GATE_RUNS))
    assert ci_steps.benchmark_gates_on_every_workload() is passed
    assert capsys.readouterr().err == ""
