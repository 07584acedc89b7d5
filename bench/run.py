"""antibragg benchmark: runs one workload (or all) and reports its metrics.

    python3 bench/run.py --workload darkcount-n5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each pass runs the workload's tasks
in a fresh worker process (``bench/worker.py``) with ``PYTHONPATH=src`` and
one BLAS thread, so imports and antibragg's caches start cold, as for a
command-line user. Passes repeat until their time would pass ``--seconds``
(at least one pass); every output is checked against its reference
(``workloads.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time from
spawning a worker to its being ready, over set-up-only workers run before
the first pass and after each pass, on top of ``--seconds``),
``run_s`` (median pass time) and ``peak_rss_mb`` (median of the
workers' ru_maxrss). ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``spans.py``, plus the tracing overhead.
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(machine, seed, tasks, passes, spans) goes to ``bench/out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import SPAN_FIELDS, dominant_layer, layer_table, per_layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

# set-up-only workers before the first pass and after each pass; spread over
# the run, their median follows the host's speed over the whole run rather
# than over a few seconds. Pass workers' own set-up is not counted: it starts
# right after a heavy worker exits and reads slower and noisier.
PROBES_PER_GAP = 2
TIME_LIMIT_S = 170.0   # one workload's run never takes longer than this


class BenchError(RuntimeError):
    """The benchmark could not run: no source tree, or a worker died."""


def metric_units():
    """{metric: unit} of every metric BENCHMARK.json lists, end-to-end and per-layer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_commit():
    """The checked-out commit; git is kept from searching above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns workers serially, never past the run's time limit."""

    def __init__(self):
        self.start = time.monotonic()
        self.env = worker_env()

    def elapsed(self):
        return time.monotonic() - self.start

    def spawn(self, spec):
        """(setup seconds, parsed result line) of one worker."""
        left = TIME_LIMIT_S - self.elapsed()
        if left <= 0:
            raise BenchError("time limit reached")
        t0 = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=self.env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(json.dumps(spec), timeout=left)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit")
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker exited with code {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        return (result["ready_ns"] - t0) / 1e9, result


def measure(workload, seed, seconds, trace, runner, units):
    """Run one workload; returns the record written to bench/out/."""
    task_list = workloads.tasks(workload, seed)
    reference = workloads.load_reference()
    setups, machine = [], {}

    def probe():
        for _ in range(PROBES_PER_GAP):
            setup_s, result = runner.spawn({"setup_only": True, "machine": not machine})
            setups.append(setup_s)
            machine.update(result.get("machine", {}))

    probe()
    machine.update(nproc=os.cpu_count(), platform=platform.platform(), commit=git_commit())
    passes, pass_time = [], 0.0
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        run_id = f"{workload}-seed{seed}-pass{len(passes)}"
        wall = time.monotonic()
        setup_s, result = runner.spawn({"tasks": task_list, "trace": traced})
        wall = time.monotonic() - wall
        pass_time += wall
        failures = {t["name"]: reason for t, out in zip(task_list, result["outputs"])
                    if (reason := workloads.check(t, out, reference)) is not None}
        passes.append({"run_id": run_id, "traced": traced, "setup_s": setup_s,
                       "run_s": result["run_s"], "peak_rss_mb": result["peak_rss_mb"],
                       "wall_s": wall, "failures": failures, "spans": result["spans"]})
        probe()
        estimate = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= (2 if trace else 1) and pass_time + estimate > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    if trace:
        predicted = workloads.predicted_layer(workload)
        traced_passes = [p for p in passes if p["traced"]]
        for p in traced_passes:
            p["dominant_layer"] = dominant_layer(p["spans"])
            p["dominant_layer_as_predicted"] = p["dominant_layer"][0].startswith(predicted)
            p["layers"] = layer_table(p["spans"])
        per_pass = [per_layer_metrics(p["spans"]) for p in traced_passes]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = (statistics.median(p["run_s"] for p in traced_passes)
                                       - statistics.median(p["run_s"] for p in plain))
        metrics["trace.dominant_layer_as_predicted"] = statistics.mean(
            p["dominant_layer_as_predicted"] for p in traced_passes)
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "run_s": statistics.median(p["run_s"] for p in plain),
                   "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
    attempted = len(task_list) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine, "tasks": task_list, "setup_probes_s": setups,
            "span_fields": SPAN_FIELDS, "passes": passes, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def report(rec):
    """Human-readable summary; the spans stay in the record file."""
    m = rec["machine"]
    print(f"# workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"passes {len(rec['passes'])}  tasks/pass {len(rec['tasks'])}")
    print(f"# machine nproc={m['nproc']} blas={m['blas']} blas_threads={m['blas_threads']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} commit={m['commit']}")
    for p in rec["passes"]:
        for name, reason in p["failures"].items():
            print(f"# FAILED {p['run_id']} {name}: {reason}")
    for name, metric in rec["metrics"].items():
        print(f"{rec['workload']:14s} {name:42s} {metric['value']:16.6f} {metric['unit']}")
    print(f"{rec['workload']:14s} {'failed_frac':42s} {rec['failed'] / rec['attempted']:16.6f} "
          f"({rec['failed']} of {rec['attempted']} tasks)")
    if rec["trace"]:
        predicted = workloads.predicted_layer(rec["workload"])
        for p in rec["passes"]:
            if p["traced"]:
                layer, self_s = p["dominant_layer"]
                verdict = "as predicted" if p["dominant_layer_as_predicted"] else "NOT AS PREDICTED"
                print(f"# {p['run_id']}: largest self time {layer} {self_s:.3f} s, "
                      f"predicted {predicted}*: {verdict}")


def write_record(rec):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    with open(path, "w") as f:
        json.dump(rec, f)
    print(f"# record written to {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="pass time per workload; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "antibragg" / "__init__.py").is_file():
        print(f"error: no antibragg source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = metric_units()
    records = []
    try:
        for name in names:
            rec = measure(name, args.seed, args.seconds, args.trace, Runner(), units)
            report(rec)
            write_record(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
