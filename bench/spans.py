"""Spans around the public functions of the antibragg modules.

The tracer wraps every public function of each module at every name its
callers resolve (``antibragg.spectra.build_liouvillian`` is the same
object as ``antibragg.model.build_liouvillian``, so both names get the same
wrapper). The scipy eigensolvers the spectra layer calls are timed into
counters of the calling span. Nothing in the package itself changes;
``uninstall`` puts every original back.

Spans are kept in memory as ``[id, name, start_ns, end_ns, parent_id,
attrs]`` (``SPAN_FIELDS``) and written out by the benchmark when the run
ends, under the id of the pass that recorded them.
"""

import functools
import importlib
import inspect
import time

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "attrs")

MODULES = ("operators", "model", "spectra", "perturbation", "dynamics", "cli")

# external solvers whose time is added to a counter of the calling span
EXTERNALS = (("scipy.linalg", "eigvals", "lapack_s"), ("scipy.linalg", "eig", "lapack_s"),
             ("scipy.sparse.linalg", "eigs", "arpack_s"))

# results an observable call returns, for the eigensolve useful-work ratio
OBSERVABLES = ("spectra.sweep", "spectra.kernel_dimension",
               "spectra.second_slowest_rate", "spectra.subradiant_count")


def _measure_build(args, kwargs, out):
    return {"nnz": int(out.matrix.nnz)}


def _measure_full_spectrum(args, kwargs, out):
    dim = (args[0] if args else kwargs["liou"]).matrix.shape[0]
    return {"bytes": 16 * dim * dim}


def _measure_basis(args, kwargs, out):
    return {"bytes": 16 * 16 ** out.params.n_qubits}


def _measure_pt(args, kwargs, out):
    return {"zero_dim": int(out.zero_dim)}


def _measure_sweep(args, kwargs, out):
    return {"rows": len(out)}


# counters computed from a call's arguments and result, by span name
MEASURES = {
    "model.build_liouvillian": _measure_build,
    "spectra.full_spectrum": _measure_full_spectrum,
    "perturbation.drive_eigenbasis": _measure_basis,
    "perturbation.effective_liouvillian": _measure_pt,
    "spectra.sweep": _measure_sweep,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    def wrap(self, name, fn):
        spans, stack, measure = self.spans, self._stack, MEASURES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if measure is not None:
                rec[5] = {**(rec[5] or {}), **measure(args, kwargs, out)}
            return out

        return traced

    def wrap_external(self, key, fn):
        """Time fn into counter `key` of the innermost open span, without a
        span of its own, so the time stays in that layer's self time."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    rec = spans[stack[-1]]
                    rec[5] = rec[5] or {}
                    rec[5][key] = rec[5].get(key, 0.0) + (clock() - start) / 1e9

        return timed

    def install(self):
        """Replace each public function by its traced wrapper under every
        module attribute that refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        owners = [importlib.import_module("antibragg")]
        owners += [importlib.import_module(f"antibragg.{m}") for m in MODULES]
        wrappers = {}
        for mod in owners[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._patch(owner, attr, wrappers[id(obj)])
        for modname, attr, key in EXTERNALS:
            owner = importlib.import_module(modname)
            self._patch(owner, attr, self.wrap_external(key, getattr(owner, attr)))
        return self

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def self_times(spans):
    """Per span: duration minus the time its direct children cover, in ns.
    Calls are single-threaded, so children are disjoint inside the parent."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_table(spans):
    """{layer: {"calls", "self_s", "total_s", <summed counters>}}, one row
    per traced function."""
    table = {}
    for s, ns in zip(spans, self_times(spans)):
        row = table.setdefault(s[1], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += ns / 1e9
        row["total_s"] += (s[3] - s[2]) / 1e9
        for key, val in (s[5] or {}).items():
            row[key] = row.get(key, 0) + val
    return table


def _ancestors(spans, i):
    p = spans[i][4]
    while p >= 0:
        yield spans[p]
        p = spans[p][4]


def answers(spans):
    """Observable results handed back to a caller outside the spectra
    observables: a sweep counts its rows, any other observable call one."""
    total = 0
    for i, s in enumerate(spans):
        if s[1] in OBSERVABLES and not any(a[1] in OBSERVABLES for a in _ancestors(spans, i)):
            total += (s[5] or {}).get("rows", 1) if s[1] == "spectra.sweep" else 1
    return total


def count_under(spans, name, ancestor):
    """Calls of `name` made (directly or not) from inside `ancestor`."""
    return sum(1 for i, s in enumerate(spans)
               if s[1] == name and any(a[1] == ancestor for a in _ancestors(spans, i)))


def per_layer_metrics(spans):
    """The benchmark's per-layer metrics from one traced pass."""
    t = layer_table(spans)

    def get(layer, key):
        return t.get(layer, {}).get(key, 0)

    fs_calls = get("spectra.full_spectrum", "calls")
    apply_calls = get("model.apply_liouvillian", "calls")
    apply_s = get("model.apply_liouvillian", "self_s")
    return {
        "operators.lowering_op.calls": get("operators.lowering_op", "calls"),
        "model.build_liouvillian.calls": get("model.build_liouvillian", "calls"),
        "model.build_liouvillian.s": get("model.build_liouvillian", "self_s"),
        "model.build_liouvillian.nnz": get("model.build_liouvillian", "nnz"),
        "model.build_hamiltonian.calls": get("model.build_hamiltonian", "calls"),
        "model.drive_superoperator.s": get("model.drive_superoperator", "self_s"),
        "model.apply_liouvillian.s": apply_s,
        "model.apply_liouvillian.us_per_call": 1e6 * apply_s / apply_calls if apply_calls else 0.0,
        "spectra.full_spectrum.calls": fs_calls,
        "spectra.full_spectrum.s": get("spectra.full_spectrum", "self_s"),
        "spectra.full_spectrum.lapack_s": get("spectra.full_spectrum", "lapack_s"),
        "spectra.full_spectrum.bytes": get("spectra.full_spectrum", "bytes"),
        "spectra.answers_per_eigensolve": answers(spans) / fs_calls if fs_calls else 0.0,
        "spectra.targeted_spectrum.calls": get("spectra.targeted_spectrum", "calls"),
        "spectra.targeted_spectrum.s": get("spectra.targeted_spectrum", "self_s"),
        "spectra.targeted_spectrum.arpack_s": get("spectra.targeted_spectrum", "arpack_s"),
        "spectra.sweep.s": get("spectra.sweep", "self_s"),
        "cli.main.s": get("cli.main", "self_s"),
        "perturbation.drive_eigenbasis.s": get("perturbation.drive_eigenbasis", "self_s"),
        "perturbation.effective_liouvillian.s": get("perturbation.effective_liouvillian", "self_s"),
        "perturbation.xi_coefficient.s": get("perturbation.xi_coefficient", "self_s"),
        "perturbation.basis_bytes": get("perturbation.drive_eigenbasis", "bytes"),
        "perturbation.zero_dim": get("perturbation.effective_liouvillian", "zero_dim"),
        "dynamics.evolve.s": get("dynamics.evolve", "self_s"),
        "dynamics.rhs_calls": count_under(spans, "model.apply_liouvillian", "dynamics.evolve"),
        "dynamics.correlation_map.calls": get("dynamics.correlation_map", "calls"),
        "dynamics.correlation_map.s": get("dynamics.correlation_map", "self_s"),
    }


def dominant_layer(spans):
    """(layer, self seconds) of the layer with the largest self time."""
    t = layer_table(spans)
    layer = max(t, key=lambda k: t[k]["self_s"])
    return layer, t[layer]["self_s"]
