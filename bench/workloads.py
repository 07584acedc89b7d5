"""The benchmark's workloads: seeded task lists and the checks on their outputs.

Each workload is a list of tasks run in one fresh process, so imports and
every cache inside antibragg start cold, as they do for a command-line
user. A task is either an ``antibragg`` command line (run through
``antibragg.cli.main``) or a shift-invert Arnoldi call, the one solver the
command line does not expose.

The seed draws only inputs that leave the amount of work unchanged: which
off-Bragg spacings the two rate points use, the drive strength where the
work does not depend on it, and the drive side (mirrored phases have the
same spectrum and the same sparsity). The evolve inputs are fixed because
any change of drive or spacing changes the integrator's step count.

This module is stdlib only, so run.py can build inputs and check
outputs without importing numpy.
"""

import csv
import io
import json
import math
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

SUBRADIANT_THRESHOLD = 0.1   # |Re lambda| below which a state is subradiant
XI_EXACT = 59.0 / 9.0        # strong-drive N=3 doublet coefficient
XI_TOL = 0.05
RATE_RTOL = 1e-6             # rates are one dense eigensolve; far above rounding
EVOLVE_ATOL = 1e-6           # integrator rtol is 1e-10
HERMITICITY_ATOL = 1e-10
TRACE_DRIFT_MAX = 1e-8

# seeded choices; every value is checked by make_reference.py
CATALAN_DRIVES = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0)   # N=5 half-wave kernel stays 42
RATE_SPACINGS_LOW = tuple(round(0.15 + 0.01 * i, 2) for i in range(10))   # 0.15..0.24
RATE_SPACINGS_HIGH = tuple(round(0.26 + 0.01 * i, 2) for i in range(10))  # 0.26..0.35
PT_DRIVES = (15.0, 20.0, 25.0, 30.0, 40.0)         # N=6 PT work is drive-independent
XI_DRIVES = (40.0, 45.0, 50.0, 55.0, 60.0)         # xi_pt within 0.1% of 59/9 here

EVOLVE_RUNS = (   # (n, t_max, samples, omega_r)
    (5, 10.0, 100, 10.0),
    (6, 2.0, 100, 10.0),
)


def _num(x):
    return repr(float(x))


def _darkcount_n5(rng):
    d_low, d_high = rng.choice(RATE_SPACINGS_LOW), rng.choice(RATE_SPACINGS_HIGH)
    return [
        {"name": "sweep-count", "kind": "cli",
         "argv": ["sweep", "--n", "5", "--d-over-lambda", "0.25", "--omega-r", "10:40:4",
                  "--observable", "subradiant_count"],
         "expect": {"rows": [[10.0, 6, "unstable"], [20.0, 10, "ok"],
                             [30.0, 10, "ok"], [40.0, 10, "ok"]]}},
        {"name": "darkcount-catalan", "kind": "cli",
         "argv": ["darkcount", "--n", "5", "--d-over-lambda", "0.5",
                  "--omega-r", _num(rng.choice(CATALAN_DRIVES))],
         "expect": {"count": 42}},
        {"name": "sweep-rate", "kind": "cli",
         "argv": ["sweep", "--n", "5", "--d-over-lambda", f"{d_low}:{d_high}:2",
                  "--omega-r", "10", "--observable", "second_slowest_rate"],
         "expect": {"rates": [f"{d_low:.2f}", f"{d_high:.2f}"]}},
    ]


def _pt_n6(rng):
    argv = ["pt", "--n", "6", "--omega-r", _num(rng.choice(PT_DRIVES))]
    if rng.random() < 0.5:
        argv.append("--drive-from-right")
    return [
        {"name": "pt-n6", "kind": "cli", "argv": argv,
         "expect": {"zero_dim": 924, "order1_nullspace_dim": 25}},
        {"name": "pt-xi", "kind": "cli",
         "argv": ["pt", "--n", "3", "--omega-r", _num(rng.choice(XI_DRIVES))],
         "expect": {"zero_dim": 20, "order1_nullspace_dim": 2, "xi": XI_EXACT}},
    ]


def _evolve_n6(rng):
    return [
        {"name": f"evolve-n{n}", "kind": "cli",
         "argv": ["evolve", "--n", str(n), "--omega-r", _num(om), "--t-max", _num(t_max),
                  "--samples", str(samples)],
         "expect": {"evolve": f"n{n}", "samples": samples, "t_max": t_max}}
        for n, t_max, samples, om in EVOLVE_RUNS
    ]


def _arnoldi_n6(rng):
    # counts must equal the PT dark counts at the same N
    return [
        {"name": "arnoldi-n6", "kind": "targeted",
         "args": {"n": 6, "omega_r": 40.0, "k": 32, "mirror": rng.random() < 0.5},
         "expect": {"count": 25}},
        {"name": "arnoldi-n5", "kind": "targeted",
         "args": {"n": 5, "omega_r": 20.0, "k": 16, "mirror": rng.random() < 0.5},
         "expect": {"count": 10}},
    ]


# name -> (task list maker, layer predicted to take the most self time)
WORKLOADS = {
    # ~9 dense 1024^2 zgeev calls; the doubled-drive points re-hit the
    # eigenvalue cache, so a faster eigensolve that loses reuse shows.
    # No matrix-free apply and no PT.
    "darkcount-n5": (_darkcount_n5, "spectra.full_spectrum"),
    # the dense 4^N x 4^N drive basis and the b^H L0 b products; spectra
    # only at N=3 and no dynamics.
    "pt-n6": (_pt_n6, "perturbation."),
    # apply_liouvillian under DOP853 with zero eigensolves: the model layer
    # by application, where the other workloads use it by assembly.
    "evolve-n6": (_evolve_n6, "model.apply_liouvillian"),
    # sparse LU plus ARPACK, which no other workload runs; N=6 assembly
    # (133k nnz) and the densified residual check cost something here.
    "arnoldi-n6": (_arnoldi_n6, "spectra.targeted_spectrum"),
}


def tasks(workload, seed):
    """The workload's tasks for this seed; the same seed gives the same tasks."""
    build, _ = WORKLOADS[workload]
    return build(random.Random(seed))


def predicted_layer(workload):
    return WORKLOADS[workload][1]


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


# ---------------------------------------------------------------- checks

def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _check_sweep_counts(rows, expect):
    got = [[float(r["omega_r"]), float(r["value"]), r["status"]] for r in rows]
    want = [[om, float(v), st] for om, v, st in expect["rows"]]
    if got != want:
        return f"sweep rows {got} != {want}"
    return None


def _check_count(rows, expect):
    if len(rows) != 1 or int(rows[0]["count"]) != expect["count"]:
        return f"count {[r['count'] for r in rows]} != {expect['count']}"
    return None


def _check_rates(rows, expect, reference):
    want = [reference["rates"][d] for d in expect["rates"]]
    if len(rows) != len(want):
        return f"{len(rows)} rate rows, expected {len(want)}"
    for row, ref in zip(rows, want):
        if row["status"] != "ok" or int(row["zero_multiplicity"]) != 1:
            return f"rate row status {row['status']}, zero multiplicity {row['zero_multiplicity']}"
        val = float(row["value"])
        if not abs(val - ref) <= RATE_RTOL * abs(ref):
            return f"rate {val!r} != reference {ref!r}"
    return None


def _check_pt(text, expect):
    report = json.loads(text)
    for key in ("zero_dim", "order1_nullspace_dim"):
        if report[key] != expect[key]:
            return f"{key} {report[key]} != {expect[key]}"
    if "xi" in expect:
        xi = report["xi_pt"]
        if not (isinstance(xi, float) and abs(xi / expect["xi"] - 1.0) < XI_TOL):
            return f"xi_pt {xi!r} not within {XI_TOL:.0%} of {expect['xi']:.6g}"
    return None


def _check_evolve(rows, expect, reference):
    """Trace drift, Hermiticity, positivity (populations in [0, 1], the
    Cauchy-Schwarz bound on coherences, purity in (0, 1]) and the
    populations at the reference samples."""
    if len(rows) != expect["samples"]:
        return f"{len(rows)} samples, expected {expect['samples']}"
    n = int(round(math.sqrt((len(rows[0]) - 3) / 2)))
    if abs(float(rows[-1]["t"]) - expect["t_max"]) > 1e-12:
        return f"last sample at t={rows[-1]['t']}, expected {expect['t_max']}"
    tol = 1e-9
    pops = []
    for i, r in enumerate(rows):
        c = [[complex(float(r[f"re_c_{a}_{b}"]), float(r[f"im_c_{a}_{b}"]))
              for b in range(1, n + 1)] for a in range(1, n + 1)]
        if float(r["trace_drift"]) > TRACE_DRIFT_MAX:
            return f"trace drift {r['trace_drift']} at sample {i}"
        if not 0.0 < float(r["purity"]) <= 1.0 + tol:
            return f"purity {r['purity']} at sample {i}"
        for a in range(n):
            if not -tol <= c[a][a].real <= 1.0 + tol:
                return f"population {c[a][a]} at sample {i}"
            for b in range(n):
                if abs(c[a][b] - c[b][a].conjugate()) > HERMITICITY_ATOL:
                    return f"correlator not Hermitian at sample {i}"
                if abs(c[a][b]) ** 2 > c[a][a].real * c[b][b].real + tol:
                    return f"coherence ({a + 1},{b + 1}) exceeds its populations at sample {i}"
        pops.append([c[a][a].real for a in range(n)])
    if any(abs(p - 1.0) > tol for p in pops[0]):
        return "initial state is not fully excited"
    for idx, want in reference["evolve"][expect["evolve"]].items():
        got = pops[int(idx)]
        if len(got) != len(want) or max(abs(g - w) for g, w in zip(got, want)) > EVOLVE_ATOL:
            return f"populations at sample {idx} {got} != reference {want}"
    return None


def _check_targeted(result, expect):
    count = sum(1 for re in result["re"] if abs(re) < SUBRADIANT_THRESHOLD)
    if count != expect["count"]:
        return f"Arnoldi count {count} != PT count {expect['count']}"
    return None


def check(task, output, reference):
    """None if the task's output matches its reference, else the reason."""
    if "error" in output:
        return output["error"]
    expect = task["expect"]
    if task["kind"] == "targeted":
        return _check_targeted(output, expect)
    if output["rc"] != 0:
        return f"exit code {output['rc']}: {output['stderr'].strip()}"
    text = output["stdout"]
    try:
        if task["argv"][0] == "pt":
            return _check_pt(text, expect)
        rows = csv_rows(text)
        if "rows" in expect:
            return _check_sweep_counts(rows, expect)
        if "count" in expect:
            return _check_count(rows, expect)
        if "rates" in expect:
            return _check_rates(rows, expect, reference)
        return _check_evolve(rows, expect, reference)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
