"""Self-test of the benchmark: traced counters repeat exactly.

    python3 perfbench/selftest.py [--seed N]

For each workload, two fresh interpreters under the hash seed that run.py
pins build the corpus from the same seed and trace the same first rounds of
it.  Every ``.calls`` counter and the counters summed from results
(``model.closure_views``, ``engine.find_one.states_visited``,
``engine.plans_returned``, ``evaluate.instances_checked`` and the gate
counts) must agree exactly, and the tracer must leave no wrapper bound once
it is removed.  The metrics and workloads that ``BENCHMARK.json`` lists must
be the ones run.py reports.  Exits 1 on any difference.

A third interpreter under another hash seed shows which counts depend on
the iteration order of sets; those are listed, not failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

# Rounds traced per workload: a few seconds of work each.
ROUNDS = {"enum-small": 12, "smart-dense": 80, "sweep-heavy": 2, "oracle": 40}


def _child(workload: str, seed: int) -> None:
    wl = run.workloads.make(workload, run.ROOT)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        rounds = wl.build(seed, workdir)
        tracer = run.traced_pass(wl, seed, workdir, rounds, range(ROUNDS[workload]))[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    left = [
        f"{name}.{attr}"
        for name in run.spans.MODULES
        for attr, value in vars(importlib.import_module(f"pathplan.{name}")).items()
        if callable(value) and hasattr(value, "__wrapped__")
    ]
    print(json.dumps({"counts": tracer.deterministic(), "left": left}))


def _traced_counts(workload: str, seed: int, hash_seed: str) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
    )
    return json.loads(done.stdout.splitlines()[-1])


def _differ(first: dict, second: dict) -> list:
    return sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))


def _declared() -> list:
    """Differences between BENCHMARK.json and the metrics run.py reports."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    wrong = []
    for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in declared[key]]
        if sorted(listed) != sorted(reported):
            wrong.append(f"{key}: BENCHMARK.json lists {sorted(set(listed) ^ set(reported))}")
    if [w["name"] for w in declared["workloads"]] != list(run.WORKLOADS):
        wrong.append("workloads differ from run.WORKLOADS")
    return wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child")
    args = parser.parse_args()
    if args.child:
        _child(args.child, args.seed)
        return 0
    wrong = _declared()
    for line in wrong:
        print(f"BENCHMARK.json: {line}")
    ok = not wrong
    other_hash_seed = str(int(run.HASH_SEED) + 1)
    for workload in run.WORKLOADS:
        first, second = (_traced_counts(workload, args.seed, run.HASH_SEED) for _ in range(2))
        differ = _differ(first["counts"], second["counts"])
        left = first["left"] + second["left"]
        status = "ok" if not differ and not left else "FAIL"
        ok = ok and status == "ok"
        print(f"{workload}: {len(first['counts'])} counters, {status}")
        for key in differ:
            print(f"  {key}: {first['counts'].get(key)} != {second['counts'].get(key)}")
        for name in left:
            print(f"  still wrapped after uninstall: {name}")
        other = _traced_counts(workload, args.seed, other_hash_seed)["counts"]
        for key in _differ(first["counts"], other):
            print(
                f"  moves with the hash seed: {key}"
                f" {first['counts'].get(key)} vs {other.get(key)}"
                f" (PYTHONHASHSEED={run.HASH_SEED} vs {other_hash_seed})"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
