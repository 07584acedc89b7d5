"""Regenerate bench/reference.json from the program, and confirm that every
input the seed can draw keeps its pinned answer.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py

Writes the off-Bragg rates for every spacing the rate points can draw and
the evolve populations at a few samples. Counts (Catalan 42, PT 924/25,
Arnoldi 25/10) and the xi anchor are physics, not stored; this script
only checks them for every seeded value. Takes about five minutes.
"""

import json
import sys

import workloads
from worker import run_cli, run_targeted

EVOLVE_SAMPLES = (25, 50, 99)


def cli_rows(argv):
    out = run_cli(argv)
    if out["rc"] != 0:
        sys.exit(f"{argv}: {out['stderr']}")
    return out["stdout"], workloads.csv_rows(out["stdout"])


def confirm(task, output, reference):
    reason = workloads.check(task, output, reference)
    if reason is not None:
        sys.exit(f"{task['name']} {task.get('argv') or task['args']}: {reason}")
    print("ok", task["name"], task.get("argv") or task["args"], flush=True)


def main():
    reference = {"rates": {}, "evolve": {}}
    for d in workloads.RATE_SPACINGS_LOW + workloads.RATE_SPACINGS_HIGH:
        _, rows = cli_rows(["sweep", "--n", "5", "--d-over-lambda", repr(d), "--omega-r", "10",
                            "--observable", "second_slowest_rate"])
        (row,) = rows
        if row["status"] != "ok" or row["zero_multiplicity"] != "1":
            sys.exit(f"rate point d/lambda={d} is not a clean single-zero point: {row}")
        reference["rates"][f"{d:.2f}"] = float(row["value"])
        print("rate", d, row["value"], flush=True)
    for task in workloads.tasks("evolve-n6", 0):
        _, rows = cli_rows(task["argv"])
        n = int(task["argv"][2])
        reference["evolve"][task["expect"]["evolve"]] = {
            str(i): [float(rows[i][f"re_c_{a}_{a}"]) for a in range(1, n + 1)]
            for i in EVOLVE_SAMPLES}

    # every seeded value must keep the pinned answer
    by_name = {}
    for seed in range(64):
        for name in workloads.WORKLOADS:
            for task in workloads.tasks(name, seed):
                # each rate point is confirmed above; one pair checks the format
                key = "rates" if "rates" in task["expect"] else json.dumps(
                    [task.get("argv"), task.get("args")])
                by_name.setdefault(key, task)
    for task in by_name.values():
        output = run_cli(task["argv"]) if task["kind"] == "cli" else run_targeted(**task["args"])
        confirm(task, output, reference)

    with open(workloads.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
