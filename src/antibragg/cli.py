"""Batch command-line front end.

Subcommands: spectrum | sweep | darkcount | pt | evolve. Periods are
given as d/lambda and converted to phi = 2*pi*d/lambda internally; both
are echoed in output headers. Ranges use the inclusive start:stop:count
syntax. Outputs are deterministic for a fixed config; only the
timestamp line in the header varies between runs.
"""

import argparse
import datetime
import json
import sys

import numpy as np

from . import dynamics, perturbation, spectra
from .model import build_liouvillian
from .operators import ArrayParams

FMT = "%.17g"  # full double precision for cross-language diffing


def parse_range(text):
    """Parse 'start:stop:count' (inclusive endpoints) or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError("range count must be >= 1")
    return list(np.linspace(start, stop, count))


def _params(n, d_over_lambda, gamma, omega_r, drive_from_right=False):
    phi = (2.0 * np.pi * d_over_lambda) % (2.0 * np.pi)
    return ArrayParams(n_qubits=n, phi=phi, gamma_1d=gamma, omega_r=omega_r,
                       drive_from_right=drive_from_right)


def _header(config):
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return (f"# config: {json.dumps(config, sort_keys=True)}\n"
            f"# generated: {stamp}\n")


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def cmd_spectrum(args):
    p = _params(args.n, args.d_over_lambda, args.gamma, args.omega_r,
                args.drive_from_right)
    result = spectra.full_spectrum(build_liouvillian(p))
    lines = [_header(_config(args)), "index,re,im\n"]
    for i, w in enumerate(result.eigenvalues):
        lines.append(f"{i},{FMT % w.real},{FMT % w.imag}\n")
    _write(args.out, "".join(lines))
    return 0


def cmd_darkcount(args):
    p = _params(args.n, args.d_over_lambda, args.gamma, args.omega_r,
                args.drive_from_right)
    count = spectra.kernel_dimension(build_liouvillian(p), tol=args.zero_tol)
    text = (_header(_config(args))
            + "n_qubits,phi,d_over_lambda,omega_r,count\n"
            + f"{p.n_qubits},{FMT % p.phi},{FMT % p.d_over_lambda},"
              f"{FMT % p.omega_r},{count}\n")
    _write(args.out, text)
    return 0


def cmd_sweep(args):
    ds = parse_range(args.d_over_lambda)
    oms = parse_range(args.omega_r)
    grid = [_params(args.n, d, args.gamma, om, args.drive_from_right) for d in ds for om in oms]
    rows = spectra.sweep(grid, args.observable,
                         rate_threshold=args.subradiant_threshold, jobs=args.jobs)
    lines = [_header(_config(args)),
             "phi,d_over_lambda,omega_r,n_qubits,observable,value,zero_multiplicity,status\n"]
    for r in rows:
        p = r.params
        lines.append(f"{FMT % p.phi},{FMT % p.d_over_lambda},{FMT % p.omega_r},"
                     f"{p.n_qubits},{r.observable},{FMT % r.value},"
                     f"{r.zero_multiplicity},{r.status}\n")
    _write(args.out, "".join(lines))
    return 0


def cmd_pt(args):
    p = _params(args.n, args.d_over_lambda, args.gamma, args.omega_r,
                args.drive_from_right)
    report = {"n_qubits": p.n_qubits, "omega_r": p.omega_r}
    if p.n_qubits == 3 and abs(p.phi - np.pi / 2) < 1e-12:
        xi = perturbation.xi_coefficient(omega_r=p.omega_r, gamma_1d=p.gamma_1d)
        report.update(zero_dim=xi.zero_dim,
                      order1_nullspace_dim=xi.order1_nullspace_dim,
                      xi_pt=xi.xi_pt, xi_fit=xi.xi_fit, slope_fit=xi.slope_fit)
    else:
        pt = perturbation.effective_liouvillian(p)
        report.update(zero_dim=pt.zero_dim,
                      order1_nullspace_dim=perturbation.order1_nullspace_dim(pt),
                      xi_pt=None, xi_fit=None, slope_fit=None)
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_evolve(args):
    p = _params(args.n, args.d_over_lambda, args.gamma, args.omega_r,
                args.drive_from_right)
    rho0 = dynamics.fully_excited_state(p.n_qubits)
    traj = dynamics.evolve(p, rho0, t_max=args.t_max, samples=args.samples,
                           rtol=args.tol_integrator)
    n = p.n_qubits
    cols = ["t"]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            cols += [f"re_c_{a}_{b}", f"im_c_{a}_{b}"]
    cols += ["trace_drift", "purity"]
    lines = [_header(_config(args)), ",".join(cols) + "\n"]
    for i, t in enumerate(traj.times):
        vals = [FMT % t]
        for a in range(n):
            for b in range(n):
                c = traj.correlators[i, a, b]
                vals += [FMT % c.real, FMT % c.imag]
        vals += [FMT % traj.trace_drift[i], FMT % traj.purity[i]]
        lines.append(",".join(vals) + "\n")
    _write(args.out, "".join(lines))
    return 0


def _config(args):
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",)}
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="antibragg",
        description="Driven-dissipative spectra, dark-state counts, perturbation "
                    "theory and dynamics for a qubit array coupled to a waveguide.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, omega_range=False, d_range=False):
        sp.add_argument("--n", type=int, required=True, help="number of qubits")
        if d_range:
            sp.add_argument("--d-over-lambda", type=str, default="0.25",
                            help="period d/lambda, scalar or start:stop:count")
        else:
            sp.add_argument("--d-over-lambda", type=float, default=0.25,
                            help="period d/lambda")
        if omega_range:
            sp.add_argument("--omega-r", type=str, default="0",
                            help="Rabi frequency in units of gamma, scalar or start:stop:count")
        else:
            sp.add_argument("--omega-r", type=float, default=0.0,
                            help="Rabi frequency in units of gamma")
        sp.add_argument("--gamma", type=float, default=1.0,
                        help="single-qubit decay rate (output scaling)")
        sp.add_argument("--out", type=str, default=None, help="output file (default stdout)")
        sp.add_argument("--drive-from-right", action="store_true",
                        help="mirror the drive phases (injection from the right end)")

    sp = sub.add_parser("spectrum", help="full eigenvalue list as CSV")
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("darkcount", help="number of exact dark eigenstates")
    common(sp)
    sp.add_argument("--zero-tol", type=float, default=spectra.ZERO_TOL,
                    help="|lambda| threshold for exact zeros, units gamma")
    sp.set_defaults(func=cmd_darkcount)

    sp = sub.add_parser("sweep", help="observable over a parameter grid")
    common(sp, omega_range=True, d_range=True)
    sp.add_argument("--observable", choices=spectra.OBSERVABLES,
                    default="second_slowest_rate")
    sp.add_argument("--jobs", type=int, default=None, help="sweep worker processes")
    sp.add_argument("--subradiant-threshold", type=float,
                    default=spectra.SUBRADIANT_THRESHOLD,
                    help="|Re lambda| threshold for subradiant counting, units gamma")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("pt", help="strong-drive perturbation-theory report (JSON)")
    common(sp)
    sp.set_defaults(func=cmd_pt)

    sp = sub.add_parser("evolve", help="time dynamics from the fully excited state")
    common(sp)
    sp.add_argument("--t-max", type=float, default=10.0, help="final time, units 1/gamma")
    sp.add_argument("--samples", type=int, default=dynamics.DEFAULT_SAMPLES)
    sp.add_argument("--tol-integrator", type=float, default=dynamics.DEFAULT_RTOL,
                    help="local relative tolerance of the time integrator")
    sp.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
