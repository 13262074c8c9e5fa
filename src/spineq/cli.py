"""Command-line front end.

Subcommands: propagate, verify, invert, darboux, catalog, bloch, reduce.
Errors are reported on stderr as ``ERROR <code>: message`` with exit code
2 for validation problems and 3 for numerical failures; identical
invocations produce byte-identical output (floats printed with 17
significant digits).

At module level this file imports only the standard library, ``errors``
and ``_numbers``.  Each ``_cmd_*`` checks its arguments first, on plain
Python numbers, and then imports the modules it runs, so an invocation
loads only what its subcommand needs.  numpy loads only where something is
computed: ``catalog list`` and ``catalog show`` (the catalog's table) and
every argument or field document these checks reject exit without it.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import os
import sys

from ._numbers import E16, MIN_TOL
from .errors import DomainError, FieldParseError, SpinEqError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

TOL_MAX = 1e-3

# fewest --nodes per subcommand; invert and darboux run a 5-point stencil
# over their trajectory
MIN_NODES = {"propagate": 2, "bloch": 2, "reduce": 2, "invert": 5, "darboux": 5}
# most --nodes and verify --points, checked before any array is allocated: a
# count far past it fails in np.linspace with MemoryError, and 1e6 propagate
# nodes already make a 280 MB CSV
MAX_NODES = 10**6


def _fmt(x: float) -> str:
    return E16 % x


def csv_rows(columns):
    """numutil.csv_rows, imported on first call.  The subcommands call it
    by this module's name, so replacing it here changes what all of them
    write."""
    from . import numutil
    return numutil.csv_rows(columns)


def _json_dump(doc, fh):
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


class _Validation(Exception):
    pass


def _parse_params(text: str | None) -> dict:
    """Parse 'k=re[,im];k2=...' parameter assignments; a name given twice
    is refused."""
    out: dict[str, complex] = {}
    if not text:
        return out
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise _Validation(f"bad parameter assignment '{chunk}'")
        key, val = chunk.split("=", 1)
        name = key.strip()
        if name in out:
            raise _Validation(f"parameter '{name}' is given twice")
        parts = val.split(",")
        try:
            if len(parts) == 1:
                out[name] = complex(float(parts[0]))
            elif len(parts) == 2:
                out[name] = complex(float(parts[0]), float(parts[1]))
            else:
                raise ValueError
        except ValueError:
            raise _Validation(f"bad parameter value '{val}' for '{key}'") from None
    return out


def _parse_v0(text: str) -> list[complex]:
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return [complex(float(parts[0])), complex(float(parts[1]))]
        if len(parts) == 4:
            return [complex(float(parts[0]), float(parts[1])),
                    complex(float(parts[2]), float(parts[3]))]
    except ValueError:
        pass
    raise _Validation(f"--v0 must be re,im,re,im (or re,re), got '{text}'")


def _parse_xyz(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",")]
        if len(values) == 3:
            return values
    except ValueError:
        pass
    raise _Validation(f"{flag} must be x,y,z, got '{text}'")


def _check_tol(tol: float) -> float:
    if not (MIN_TOL <= tol <= TOL_MAX):
        raise _Validation(f"--tol must lie in [{MIN_TOL}, {TOL_MAX}]")
    return tol


def _check_count(command: str, flag: str, n: int, least: int) -> None:
    if n < least:
        raise _Validation(f"{command} needs {flag} >= {least}")
    if n > MAX_NODES:
        raise _Validation(f"{command} needs {flag} <= {MAX_NODES}")


def _check_window(window) -> tuple[float, float]:
    t0, t1 = window
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise _Validation("--window bounds must be finite")
    if not t1 > t0:
        raise _Validation("--window must satisfy t0 < t1")
    return float(t0), float(t1)


@contextlib.contextmanager
def _output(args):
    """The file --out names, open for writing and closed on exit, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="utf-8") as fh:
        yield fh


def _write_field_csv(fh, times, samples):
    fh.write("t,re_F1,im_F1,re_F2,im_F2,re_F3,im_F3\n")
    fh.writelines(csv_rows([times, samples[:, 0].real, samples[:, 0].imag,
                            samples[:, 1].real, samples[:, 1].imag,
                            samples[:, 2].real, samples[:, 2].imag]))


def _propagation_inputs(args):
    """propagate's and invert's inputs, checked in the CLI's then propagate's order."""
    from .fields import check_poles, load_field_json
    spec = load_field_json(args.field)
    v0 = _parse_v0(args.v0)
    window = _check_window(args.window)
    tol = _check_tol(args.tol)
    if not all(map(cmath.isfinite, v0)):
        raise _Validation(f"initial state V0 = {args.v0} is not finite")
    check_poles(spec, window)
    return spec, v0, window, tol


def _cmd_propagate(args) -> int:
    spec, v0, window, tol = _propagation_inputs(args)
    from .dynamics import propagate
    traj = propagate(spec, v0, window, tol=tol, n_nodes=args.nodes)
    with _output(args) as fh:
        if args.format == "csv":
            traj.to_csv(fh)
        else:
            v = traj.states.ravel()
            doc = {
                "times": "".join(csv_rows([traj.times])).split(),
                "states": [pair.split(",") for pair in
                           "".join(csv_rows([v.real, v.imag])).split()],
                "est_error": _fmt(traj.est_error),
            }
            _json_dump(doc, fh)
    return EXIT_OK


def _verify_one(entry_id, params, window, n_points, tol):
    from . import catalog
    rep = catalog.verify_entry(entry_id, params=params or None,
                               window=window, n_points=n_points)
    e = catalog.entry(entry_id)
    return {
        "entry": entry_id,
        "label": e.label,
        "window": [rep.window[0], rep.window[1]],
        "n_points": n_points,
        "max_residual": rep.max_residual,
        "tolerance": tol,
        "passed": bool(rep.max_residual <= tol),
        "flagged": e.flagged,
    }


def _cmd_verify(args) -> int:
    params = _parse_params(args.params)
    window = _check_window(args.window) if args.window else None
    _check_count("verify", "--points", args.points, 1)
    tol = args.tol if args.tol is not None else 1e-6
    if args.all:
        from . import catalog
        reports = [_verify_one(i, params, window, args.points, tol)
                   for i in range(1, catalog.N_ENTRIES + 1)]
        with _output(args) as fh:
            if args.format == "json":
                _json_dump({"reports": _round_reports(reports)}, fh)
            else:
                fh.write(f"{'entry':>5} {'max residual':>16} {'status':>8}  label\n")
                for r in reports:
                    status = "flagged" if r["flagged"] else ("pass" if r["passed"] else "FAIL")
                    fh.write(f"{r['entry']:>5} {_fmt(r['max_residual']):>16} "
                             f"{status:>8}  {r['label']}\n")
        bad = [r for r in reports if not r["passed"] and not r["flagged"]]
        return EXIT_NUMERICAL if bad else EXIT_OK
    if args.entry is None:
        raise _Validation("verify needs --entry <id> or --all")
    report = _verify_one(args.entry, params, window, args.points, tol)
    with _output(args) as fh:
        _json_dump(_round_reports([report])[0], fh)
    return EXIT_OK if (report["passed"] or report["flagged"]) else EXIT_NUMERICAL


def _round_reports(reports):
    out = []
    for r in reports:
        r = dict(r)
        r["max_residual"] = _fmt(r["max_residual"])
        r["tolerance"] = _fmt(r["tolerance"])
        r["window"] = [_fmt(x) for x in r["window"]]
        out.append(r)
    return out


def _cmd_invert(args) -> int:
    spec, v0, window, tol = _propagation_inputs(args)
    import numpy as np

    from .dynamics import Trajectory, propagate
    from .solutions import gauge_from_field, invert_field, invert_field_selfadjoint
    traj = propagate(spec, v0, window, tol=tol, n_nodes=args.nodes)
    if args.selfadjoint:
        F = invert_field_selfadjoint(traj)
    else:
        F = invert_field(traj, c=gauge_from_field(traj))
    true = traj.field_samples
    dev = float(np.max(np.abs(F - true)))
    with _output(args) as fh:
        if args.format == "csv":
            # recovered-field export shares the trajectory schema: the F
            # columns carry the recovered samples
            out = Trajectory(traj.times, traj.states,
                             np.asarray(F, dtype=complex), traj.est_error)
            out.to_csv(fh)
        else:
            _json_dump({"max_deviation_from_input_field": _fmt(dev)}, fh)
    return EXIT_OK


def _cmd_darboux(args) -> int:
    p = _parse_params(args.params)
    unknown = p.keys() - {"f", "R", "phi0", "eps"}
    if unknown:
        raise _Validation(f"darboux does not take {sorted(unknown)}; "
                          f"it takes ['f', 'R', 'phi0', 'eps']")
    for key in ("f", "R"):
        if key not in p:
            raise _Validation(f"darboux needs parameter '{key}' (--params \"f=..;R=..\")")
    f = p["f"]
    R = p["R"]
    phi0 = p.get("phi0", 0j)
    eps = p.get("eps", 0.3 + 0j)
    window = _check_window(args.window)
    from .darboux import constant_f_trajectory, darboux_apply, darboux_params_constant_f
    params = darboux_params_constant_f(f, R, phi0)
    traj = constant_f_trajectory(f, eps, 1.0 + 0j, 1.0 + 0j, window, args.nodes)
    out = darboux_apply(traj, eps, params)
    with _output(args) as fh:
        out.to_csv(fh)
    descr = {
        "f": [f.real, f.imag],
        "R": [R.real, R.imag],
        "phi0": [complex(phi0).real, complex(phi0).imag],
        "eps": [complex(eps).real, complex(eps).imag],
        "window": [window[0], window[1]],
    }
    if args.out:
        with open(args.out + ".json", "w", encoding="utf-8") as jh:
            _json_dump(descr, jh)
    else:
        _json_dump(descr, sys.stdout)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    from . import catalog
    if args.action == "list":
        doc = [{"id": e.id, "label": e.label, "params": list(e.param_names),
                "flagged": e.flagged}
               for e in catalog.entries()]
        _json_dump({"entries": doc}, sys.stdout)
        return EXIT_OK
    e = catalog.entry(args.id)
    p = e.merged(None)
    window = e.window_for(p)
    doc = {
        "id": e.id,
        "label": e.label,
        "kind": e.kind,
        "param_names": list(e.param_names),
        "default_params": {k: [complex(v).real, complex(v).imag]
                           for k, v in e.default_params.items()},
        "default_window": [window[0], window[1]],
        "field_dsl": e.field_dsl,
        "poles_in_window": [_fmt(t) for t in e.poles(p, window)],
        "flagged": e.flagged,
        "notes": e.notes,
    }
    _json_dump(doc, sys.stdout)
    return EXIT_OK


def _cmd_bloch(args) -> int:
    from .fields import check_poles, load_field_json
    spec = load_field_json(args.field)
    window = _check_window(args.window)
    tol = _check_tol(args.tol)
    n0 = _parse_xyz(args.n0, "--n0")
    # bloch_propagate's first checks, in its order
    if not abs(math.hypot(*n0) - 1.0) <= 1e-8:
        raise _Validation("initial Bloch vector must be unit length")
    check_poles(spec, window)
    import numpy as np

    from .dynamics import BlochState, bloch_propagate
    path = bloch_propagate(spec, BlochState(np.array(n0), 0.0, 1.0), window, tol=tol,
                           n_nodes=args.nodes)
    with _output(args) as fh:
        fh.write("t,n1,n2,n3,alpha,N\n")
        fh.writelines(csv_rows([path.times, path.n[:, 0], path.n[:, 1], path.n[:, 2],
                                path.alpha, path.N]))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from .expr import compile_expr, parse_expr
    from .fields import load_field_json
    spec = load_field_json(args.field)
    window = _check_window(args.window)
    l = _parse_xyz(args.l, "--l")
    alpha_fn = compile_expr(parse_expr(args.alpha), {})
    adot_fn = compile_expr(parse_expr(args.alpha_dot), {}) if args.alpha_dot else None
    # ReductionPlan.make's checks
    if not all(map(math.isfinite, l)):
        raise _Validation("transform axis must be finite")
    if not any(l):
        raise _Validation("transform axis must be nonzero")
    import numpy as np

    from .fields import field_callable
    from .reductions import ReductionPlan, reduce_field
    plan = ReductionPlan.make(np.array(l, dtype=complex), alpha_fn, adot_fn)
    times = np.linspace(window[0], window[1], args.nodes)
    field = field_callable(spec)
    # node by node, so that an alpha pole before the field's first pole is
    # the error raised
    samples = np.array([reduce_field(field, plan, t).as_array() for t in times])
    with _output(args) as fh:
        _write_field_csv(fh, times, samples)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spineq",
                                 description="Two-level spin equation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--window", nargs=2, type=float, metavar=("T0", "T1"))
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--nodes", type=int, default=801)

    p = sub.add_parser("propagate", help="integrate the spin equation")
    p.add_argument("--field", required=True)
    p.add_argument("--v0", required=True, help="re,im,re,im initial spinor")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_propagate)

    p = sub.add_parser("verify", help="residual-verify catalog entries")
    p.add_argument("--entry", type=int, default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--params", type=str, default=None)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--window", nargs=2, type=float, default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="residual tolerance (default 1e-6)")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("invert", help="recover the field from a propagated solution")
    p.add_argument("--field", required=True)
    p.add_argument("--v0", required=True)
    p.add_argument("--selfadjoint", action="store_true")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("darboux", help="generate a Darboux partner pair")
    p.add_argument("--params", required=True,
                   help='e.g. "f=0.5;R=1;phi0=0.1;eps=0.3"')
    common(p)
    p.set_defaults(fn=_cmd_darboux)

    p = sub.add_parser("catalog", help="inspect the exact-solution catalog")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("id", type=int, nargs="?", default=None)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("bloch", help="propagate the Bloch direction form")
    p.add_argument("--field", required=True)
    p.add_argument("--n0", required=True, help="x,y,z unit vector")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_bloch)

    p = sub.add_parser("reduce", help="sample a reduced equivalent field")
    p.add_argument("--field", required=True)
    p.add_argument("--l", required=True, help="transform axis x,y,z")
    p.add_argument("--alpha", required=True, help="DSL expression in t")
    p.add_argument("--alpha-dot", dest="alpha_dot", default=None)
    common(p)
    p.set_defaults(fn=_cmd_reduce)

    return ap


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "catalog" and args.action == "show" and args.id is None:
            raise _Validation("catalog show needs an entry id")
        if args.command in MIN_NODES:
            if args.window is None:
                raise _Validation(f"{args.command} needs --window T0 T1")
            _check_count(args.command, "--nodes", args.nodes, MIN_NODES[args.command])
        return args.fn(args)
    except (_Validation, DomainError, FieldParseError, OSError) as exc:
        print(f"ERROR {EXIT_VALIDATION}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SpinEqError as exc:
        print(f"ERROR {EXIT_NUMERICAL}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    # numpy's OpenBLAS starts one worker thread per core when it loads, and
    # they spin on CPU, while the CLI only puts 2x2 and n x 2 arrays through
    # BLAS; a value set in the environment wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
