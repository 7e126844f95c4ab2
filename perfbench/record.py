"""Run the benchmark over several seeds and record the results.

Usage:
    python3 perfbench/record.py --label NAME

For every workload in BENCHMARK.json, runs ``run.py`` with ``--trace 0``
for seeds 1..10 and with ``--trace 1`` for seeds 1001 and 1002, for the
``run_seconds`` that BENCHMARK.json sets.  Writes
``perfbench/results/BENCH_<NAME>.json`` with every value, and for each end-to-end metric its median,
quartiles and quartile spread as a share of the median beside the
metric's bound.  It also derives the cost of the noise channel inside the
kernel: ``kernel.ns_per_round`` on ``simulate-intercept-noisy`` less that
on ``simulate-ball``, marked unresolved when it is no larger than the
ranges of the two sets of traced runs added together.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEEDS = range(1001, 1003)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """The result object of one benchmark run, or None if it printed none."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summarize(values: list) -> dict:
    median = statistics.median(values)
    out = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def collect(results: list) -> dict:
    """Per metric: its unit and a summary of its values over `results`."""
    metrics: dict = {}
    for r in results:
        for name, m in r["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    return {name: {"unit": m["unit"], **summarize(m["values"])} for name, m in metrics.items()}


def channel_cost(workloads: dict) -> dict | None:
    """`kernel.ns_per_round` on simulate-intercept-noisy less simulate-ball."""
    ball, noisy = (workloads.get(w, {}).get("per_layer", {}).get("kernel.ns_per_round")
                   for w in ("simulate-ball", "simulate-intercept-noisy"))
    if not (ball and noisy):
        return None
    diff = noisy["median"] - ball["median"]
    spread = sum(max(m["values"]) - min(m["values"]) for m in (ball, noisy))
    return {
        "value": diff,
        "unit": "ns",
        "from": "kernel.ns_per_round median, simulate-intercept-noisy less simulate-ball",
        "runs": len(ball["values"]) + len(noisy["values"]),
        "resolved": len(ball["values"]) > 1 and len(noisy["values"]) > 1 and abs(diff) > spread,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    out = HERE / "results" / f"BENCH_{args.label}.json"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    doc = {
        "label": args.label,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": importlib.metadata.version("numpy")},
        "run_seconds": seconds,
        "workloads": {},
    }
    all_ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        plain = [run_once(wl, seed, seconds, 0) for seed in SEEDS]
        traced = [run_once(wl, seed, seconds, 1) for seed in TRACE_SEEDS]
        done = [r for r in plain + traced if r is not None]
        entry = {
            "seeds": list(SEEDS),
            "trace_seeds": list(TRACE_SEEDS),
            "runs_without_result": len(plain) + len(traced) - len(done),
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "end_to_end": collect([r for r in plain if r is not None]),
            "per_layer": collect([r for r in traced if r is not None]),
        }
        all_ok &= entry["runs_without_result"] == 0 and entry["failed"] == 0
        print(f"{wl}: {entry['failed']} failed of {entry['attempted']} commands")
        for name, m in entry["end_to_end"].items():
            m["bound"] = bounds.get(name)
            spread = m.get("spread")
            print(f"  {name:<12} median {m['median']:.6g} {m['unit']:<3} spread "
                  f"{spread if spread is None else round(spread, 4)} (bound {m['bound']})")
        doc["workloads"][wl] = entry

    channels = channel_cost(doc["workloads"])
    if channels:
        doc["derived"] = {"channels.ns_per_round": channels}
        print(f"channels.ns_per_round {channels['value']:.6g} ns over {channels['runs']} traced"
              f" runs ({'resolved' if channels['resolved'] else 'unresolved'})")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
