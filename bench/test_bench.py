"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import antibragg
import spans
import workloads
from worker import run_cli, run_targeted

ROOT = Path(__file__).resolve().parent.parent


def _owners():
    mods = [importlib.import_module("antibragg")]
    mods += [importlib.import_module(f"antibragg.{m}") for m in spans.MODULES]
    return mods


def _snapshot():
    snap = {(m.__name__, k): v for m in _owners() for k, v in vars(m).items()}
    for modname, attr, _ in spans.EXTERNALS:
        mod = sys.modules[modname]
        snap[(modname, attr)] = getattr(mod, attr)
    return snap


def _traced(fn):
    tracer = spans.Tracer().install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.spans


# ------------------------------------------------------------ corrupted outputs

def test_corrupted_count_is_failed():
    task = {"name": "darkcount", "kind": "cli", "argv": ["darkcount"], "expect": {"count": 5}}
    out = run_cli(["darkcount", "--n", "3", "--d-over-lambda", "0.5", "--omega-r", "5"])
    assert workloads.check(task, out, {}) is None
    lines = out["stdout"].splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",11"
    bad = dict(out, stdout="\n".join(lines) + "\n")
    assert "11" in workloads.check(task, bad, {})


def test_corrupted_sweep_row_is_failed():
    task = workloads.tasks("darkcount-n5", 0)[0]
    rows = [[10.0, 6, "unstable"], [20.0, 10, "ok"], [30.0, 10, "ok"], [40.0, 10, "ok"]]

    def csv(rows):
        body = "".join(f"1.57,0.25,{om!r},5,subradiant_count,{v},1,{st}\n" for om, v, st in rows)
        return {"rc": 0, "stderr": "", "stdout": "# config\nphi,d_over_lambda,omega_r,n_qubits,"
                "observable,value,zero_multiplicity,status\n" + body}

    assert workloads.check(task, csv(rows), {}) is None
    assert workloads.check(task, csv(rows[:1] + [[20.0, 11, "ok"]] + rows[2:]), {}) is not None
    assert workloads.check(task, csv([[10.0, 6, "ok"]] + rows[1:]), {}) is not None


def test_corrupted_pt_and_xi_are_failed():
    task = {"name": "pt", "kind": "cli", "argv": ["pt"],
            "expect": {"zero_dim": 20, "order1_nullspace_dim": 2, "xi": workloads.XI_EXACT}}
    out = run_cli(["pt", "--n", "3", "--omega-r", "50"])
    assert workloads.check(task, out, {}) is None
    report = json.loads(out["stdout"])
    for key, val in (("order1_nullspace_dim", 3), ("xi_pt", 7.0), ("xi_pt", None)):
        bad = dict(out, stdout=json.dumps(dict(report, **{key: val})))
        assert workloads.check(task, bad, {}) is not None, key


def test_failed_command_and_exception_are_failed():
    task = {"name": "pt", "kind": "cli", "argv": ["pt"],
            "expect": {"zero_dim": 20, "order1_nullspace_dim": 2}}
    assert workloads.check(task, run_cli(["pt", "--n", "3", "--omega-r", "0"]), {}) is not None
    assert workloads.check(task, {"error": "MemoryError: "}, {}) is not None


def test_corrupted_arnoldi_count_is_failed():
    task = {"name": "arnoldi", "kind": "targeted", "expect": {"count": 2}}
    out = run_targeted(n=3, omega_r=40.0, k=8, mirror=False)
    assert workloads.check(task, out, {}) is None
    bad = {"re": out["re"] + [0.0]}
    assert workloads.check(task, bad, {}) is not None


def test_corrupted_evolve_is_failed():
    out = run_cli(["evolve", "--n", "2", "--omega-r", "3", "--t-max", "1", "--samples", "20"])
    rows = workloads.csv_rows(out["stdout"])
    ref = {"evolve": {"n2": {"19": [float(rows[19]["re_c_1_1"]), float(rows[19]["re_c_2_2"])]}}}
    task = {"name": "evolve", "kind": "cli", "argv": ["evolve"],
            "expect": {"evolve": "n2", "samples": 20, "t_max": 1.0}}
    assert workloads.check(task, out, ref) is None
    header = [ln for ln in out["stdout"].splitlines() if not ln.startswith("#")][0].split(",")
    for col, value in (("re_c_1_1", "1.5"), ("im_c_1_2", "0.3"), ("trace_drift", "1e-3")):
        text = out["stdout"].splitlines()
        fields = text[-1].split(",")
        fields[header.index(col)] = value
        text[-1] = ",".join(fields)
        assert workloads.check(task, dict(out, stdout="\n".join(text)), ref) is not None, col
    shifted = {"evolve": {"n2": {"19": [v + 1e-4 for v in ref["evolve"]["n2"]["19"]]}}}
    assert workloads.check(task, out, shifted) is not None


# ------------------------------------------------------------ tracing

def test_wrappers_restore_originals():
    before = _snapshot()
    tracer = spans.Tracer().install()
    try:
        import antibragg.model as model
        import antibragg.spectra as spectra
        assert spectra.build_liouvillian is model.build_liouvillian
        assert spectra.build_liouvillian is not before[("antibragg.model", "build_liouvillian")]
        assert antibragg.full_spectrum is spectra.full_spectrum
        assert inspect.unwrap(spectra.full_spectrum) is before[("antibragg.spectra", "full_spectrum")]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_span_total():
    def work():
        run_cli(["sweep", "--n", "3", "--omega-r", "5:10:2", "--observable", "subradiant_count"])
        run_targeted(n=3, omega_r=40.0, k=8, mirror=True)
        run_cli(["evolve", "--n", "2", "--omega-r", "3", "--t-max", "0.5", "--samples", "5"])

    antibragg.spectra._eigenvalues_cached.cache_clear()   # workers start cold
    recorded = _traced(work)
    roots = sum(s[3] - s[2] for s in recorded if s[4] < 0)
    assert sum(spans.self_times(recorded)) == roots
    assert min(spans.self_times(recorded)) >= 0
    table = spans.layer_table(recorded)
    assert abs(sum(r["self_s"] for r in table.values()) - roots / 1e9) < 1e-9 * len(recorded)

    m = spans.per_layer_metrics(recorded)
    assert m["spectra.full_spectrum.calls"] == 3        # omega 5, 10, 20 with the cache
    assert m["spectra.answers_per_eigensolve"] == pytest.approx(2 / 3)
    assert m["spectra.full_spectrum.bytes"] == 3 * 16 * 64 ** 2
    assert 0 < m["spectra.full_spectrum.lapack_s"] <= m["spectra.full_spectrum.s"]
    assert m["spectra.targeted_spectrum.calls"] == 1
    assert 0 < m["spectra.targeted_spectrum.arpack_s"] <= m["spectra.targeted_spectrum.s"]
    assert m["dynamics.rhs_calls"] > 0
    assert m["dynamics.correlation_map.calls"] == 5
    assert m["model.build_liouvillian.nnz"] > 0


def test_pt_counters():
    recorded = _traced(lambda: run_cli(["pt", "--n", "3", "--omega-r", "50"]))
    m = spans.per_layer_metrics(recorded)
    assert m["perturbation.basis_bytes"] == 16 * 16 ** 3
    assert m["perturbation.zero_dim"] == 20
    assert m["perturbation.xi_coefficient.s"] > 0
    layer, _ = spans.dominant_layer(recorded)
    assert layer in spans.layer_table(recorded)


# ------------------------------------------------------------ contract

def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    layer_names = [*spans.per_layer_metrics([]), "trace.overhead_s",
                   "trace.dominant_layer_as_predicted"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.tasks(name, 7) == workloads.tasks(name, 7)
    drawn = {json.dumps(workloads.tasks("darkcount-n5", s)) for s in range(8)}
    assert len(drawn) > 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pt-n6", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
