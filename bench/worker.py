"""One workload pass in a fresh process.

Reads a JSON spec on stdin: ``{"tasks": [...], "trace": bool}``
or ``{"setup_only": true, "machine": bool}``. Imports antibragg the way the command line
does, runs the tasks in order, and prints one JSON line with the time it
became ready (``time.monotonic_ns``, comparable with the parent's clock),
the pass time, its peak RSS, each task's raw output and, when traced, the
spans. Outputs are checked by the parent, not here.
"""

import contextlib
import io
import json
import resource
import sys
import time

import numpy as np

import antibragg
import antibragg.cli


def blas_info():
    """BLAS vendor and the thread count the loaded library reports. Imports
    are local so a worker's set-up loads only what a command-line run does."""
    import ctypes
    import glob
    import os

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = antibragg.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_targeted(n, omega_r, k, mirror):
    params = antibragg.ArrayParams(n, np.pi / 2, 1.0, omega_r, drive_from_right=mirror)
    result = antibragg.targeted_spectrum(antibragg.build_liouvillian(params), shift=0.0, k=k)
    return {"re": [float(x) for x in result.eigenvalues.real]}


def run_task(task):
    try:
        if task["kind"] == "cli":
            return run_cli(task["argv"])
        return run_targeted(**task["args"])
    except Exception as exc:  # a task that raises is a failed task, not a failed run
        return {"error": f"{type(exc).__name__}: {exc}"}


def main():
    spec = json.loads(sys.stdin.read())
    ready_ns = time.monotonic_ns()
    if spec.get("setup_only"):
        machine = {"machine": blas_info()} if spec.get("machine") else {}
        print(json.dumps({"ready_ns": ready_ns, **machine}))
        return 0
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer().install()
    start = time.perf_counter()
    try:
        outputs = [run_task(t) for t in spec["tasks"]]
    finally:
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps({
        "ready_ns": ready_ns,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "outputs": outputs,
        "spans": tracer.spans if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
