"""Command-line front end.

Subcommands: propagate, verify, invert, darboux, catalog, bloch, reduce.
Errors are reported on stderr as ``ERROR <code>: message`` with exit code
2 for validation problems and 3 for numerical failures; identical
invocations produce byte-identical output (floats printed with 17
significant digits).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import catalog
from .darboux import darboux_params_constant_f, darboux_apply, constant_f_solution
from .dynamics import Trajectory, propagate, bloch_propagate, BlochState
from .errors import (AccuracyError, DomainError, FieldParseError,
                     IntegrationError, SingularityError, SpinEqError)
from .expr import parse_expr, eval_expr
from .fields import load_field_json
from .reductions import ReductionPlan, reduce_field
from .solutions import gauge_from_field, invert_field, invert_field_selfadjoint

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_FMT = "%.16e"

TOL_MIN, TOL_MAX = 1e-13, 1e-3

# fewest --nodes per subcommand; invert and darboux run a 5-point stencil
# over their trajectory
MIN_NODES = {"propagate": 2, "bloch": 2, "reduce": 2, "invert": 5, "darboux": 5}


def _fmt(x: float) -> str:
    return _FMT % x


def _json_dump(doc, fh):
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


class _Validation(Exception):
    pass


def _parse_params(text: str | None) -> dict:
    """Parse 'k=re[,im];k2=...' parameter assignments."""
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
        parts = val.split(",")
        try:
            if len(parts) == 1:
                out[key.strip()] = complex(float(parts[0]))
            elif len(parts) == 2:
                out[key.strip()] = complex(float(parts[0]), float(parts[1]))
            else:
                raise ValueError
        except ValueError:
            raise _Validation(f"bad parameter value '{val}' for '{key}'") from None
    return out


def _parse_v0(text: str) -> np.ndarray:
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return np.array([float(parts[0]), float(parts[1])], dtype=complex)
        if len(parts) == 4:
            return np.array([complex(float(parts[0]), float(parts[1])),
                             complex(float(parts[2]), float(parts[3]))])
    except ValueError:
        pass
    raise _Validation(f"--v0 must be re,im,re,im (or re,re), got '{text}'")


def _check_tol(tol: float) -> float:
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise _Validation(f"--tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    return tol


def _check_window(window) -> tuple[float, float]:
    t0, t1 = window
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise _Validation("--window bounds must be finite")
    if not t1 > t0:
        raise _Validation("--window must satisfy t0 < t1")
    return float(t0), float(t1)


def _out_handle(args):
    if args.out:
        return open(args.out, "w", encoding="utf-8"), True
    return sys.stdout, False


def _write_field_csv(fh, times, samples):
    fh.write("t,re_F1,im_F1,re_F2,im_F2,re_F3,im_F3\n")
    for t, f in zip(times, samples):
        row = [t, f[0].real, f[0].imag, f[1].real, f[1].imag, f[2].real, f[2].imag]
        fh.write(",".join(_fmt(x) for x in row) + "\n")


def _cmd_propagate(args) -> int:
    spec = load_field_json(args.field)
    v0 = _parse_v0(args.v0)
    window = _check_window(args.window)
    tol = _check_tol(args.tol)
    traj = propagate(spec, v0, window, tol=tol, n_nodes=args.nodes)
    fh, close = _out_handle(args)
    try:
        if args.format == "csv":
            traj.to_csv(fh)
        else:
            doc = {
                "times": [_fmt(t) for t in traj.times],
                "states": [[_fmt(v.real), _fmt(v.imag)] for row in traj.states for v in row],
                "est_error": _fmt(traj.est_error),
            }
            _json_dump(doc, fh)
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _verify_one(entry_id, params, window, n_points, tol):
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
    if args.points < 1:
        raise _Validation("verify needs --points >= 1")
    tol = args.tol if args.tol is not None else 1e-6
    if args.all:
        reports = [_verify_one(i, params, window, args.points, tol)
                   for i in range(1, catalog.N_ENTRIES + 1)]
        fh, close = _out_handle(args)
        try:
            if args.format == "json":
                _json_dump({"reports": _round_reports(reports)}, fh)
            else:
                fh.write(f"{'entry':>5} {'max residual':>16} {'status':>8}  label\n")
                for r in reports:
                    status = "flagged" if r["flagged"] else ("pass" if r["passed"] else "FAIL")
                    fh.write(f"{r['entry']:>5} {_fmt(r['max_residual']):>16} "
                             f"{status:>8}  {r['label']}\n")
        finally:
            if close:
                fh.close()
        bad = [r for r in reports if not r["passed"] and not r["flagged"]]
        return EXIT_NUMERICAL if bad else EXIT_OK
    if args.entry is None:
        raise _Validation("verify needs --entry <id> or --all")
    report = _verify_one(args.entry, params, window, args.points, tol)
    fh, close = _out_handle(args)
    try:
        _json_dump(_round_reports([report])[0], fh)
    finally:
        if close:
            fh.close()
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
    spec = load_field_json(args.field)
    v0 = _parse_v0(args.v0)
    window = _check_window(args.window)
    tol = _check_tol(args.tol)
    traj = propagate(spec, v0, window, tol=tol, n_nodes=args.nodes)
    if args.selfadjoint:
        F = invert_field_selfadjoint(traj)
    else:
        F = invert_field(traj, c=gauge_from_field(traj))
    true = traj.field_samples
    dev = float(np.max(np.abs(F - true)))
    fh, close = _out_handle(args)
    try:
        if args.format == "csv":
            # recovered-field export shares the trajectory schema: the F
            # columns carry the recovered samples
            out = Trajectory(traj.times, traj.states,
                             np.asarray(F, dtype=complex), traj.est_error)
            out.to_csv(fh)
        else:
            _json_dump({"max_deviation_from_input_field": _fmt(dev)}, fh)
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _cmd_darboux(args) -> int:
    p = _parse_params(args.params)
    for key in ("f", "R"):
        if key not in p:
            raise _Validation(f"darboux needs parameter '{key}' (--params \"f=..;R=..\")")
    f = p["f"]
    R = p["R"]
    phi0 = p.get("phi0", 0j)
    eps = p.get("eps", 0.3 + 0j)
    window = _check_window(args.window)
    params = darboux_params_constant_f(f, R, phi0)
    sol = constant_f_solution(f, eps, p.get("p", 1.0 + 0j), p.get("q", 1.0 + 0j))
    times = np.linspace(window[0], window[1], args.nodes)
    states = np.array([sol(t) for t in times])
    fields = np.array([(eps, 0.0, f) for _ in times])
    traj = Trajectory(times, states, fields, est_error=0.0)
    out = darboux_apply(traj, eps, params)
    fh, close = _out_handle(args)
    try:
        out.to_csv(fh)
    finally:
        if close:
            fh.close()
    descr = {
        "f": [f.real, f.imag],
        "R": [R.real, R.imag],
        "phi0": [complex(phi0).real, complex(phi0).imag],
        "eps": [complex(eps).real, complex(eps).imag],
        "window": [window[0], window[1]],
    }
    stream = sys.stderr if args.out else sys.stdout
    if args.out:
        with open(args.out + ".json", "w", encoding="utf-8") as jh:
            _json_dump(descr, jh)
    else:
        _json_dump(descr, stream)
    return EXIT_OK


def _cmd_catalog(args) -> int:
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
    spec = load_field_json(args.field)
    window = _check_window(args.window)
    tol = _check_tol(args.tol)
    try:
        n0 = np.array([float(x) for x in args.n0.split(",")])
        if n0.shape != (3,):
            raise ValueError
    except ValueError:
        raise _Validation(f"--n0 must be x,y,z, got '{args.n0}'") from None
    path = bloch_propagate(spec, BlochState(n0, 0.0, 1.0), window, tol=tol,
                           n_nodes=args.nodes)
    fh, close = _out_handle(args)
    try:
        fh.write("t,n1,n2,n3,alpha,N\n")
        for i, t in enumerate(path.times):
            row = [t, path.n[i, 0], path.n[i, 1], path.n[i, 2],
                   path.alpha[i], path.N[i]]
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _cmd_reduce(args) -> int:
    spec = load_field_json(args.field)
    window = _check_window(args.window)
    try:
        l = np.array([float(x) for x in args.l.split(",")], dtype=complex)
        if l.shape != (3,):
            raise ValueError
    except ValueError:
        raise _Validation(f"--l must be x,y,z, got '{args.l}'") from None
    alpha_ast = parse_expr(args.alpha)
    alpha_fn = lambda t: eval_expr(alpha_ast, t, {})
    if args.alpha_dot:
        adot_ast = parse_expr(args.alpha_dot)
        adot_fn = lambda t: eval_expr(adot_ast, t, {})
    else:
        adot_fn = None
    plan = ReductionPlan.make(l, alpha_fn, adot_fn)
    times = np.linspace(window[0], window[1], args.nodes)
    samples = np.array([reduce_field(spec, plan, t).as_array() for t in times])
    fh, close = _out_handle(args)
    try:
        _write_field_csv(fh, times, samples)
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spineq",
                                 description="Two-level spin equation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, field_required=True):
        p.add_argument("--window", nargs=2, type=float, metavar=("T0", "T1"))
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--nodes", type=int, default=801)

    p = sub.add_parser("propagate", help="integrate the spin equation")
    p.add_argument("--field", required=True)
    p.add_argument("--v0", required=True, help="re,im,re,im initial spinor")
    common(p)
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
    p.add_argument("--format", choices=("csv", "json", "table"), default="table")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("invert", help="recover the field from a propagated solution")
    p.add_argument("--field", required=True)
    p.add_argument("--v0", required=True)
    p.add_argument("--selfadjoint", action="store_true")
    common(p)
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
            if args.nodes < MIN_NODES[args.command]:
                raise _Validation(f"{args.command} needs --nodes >= "
                                  f"{MIN_NODES[args.command]}")
        return args.fn(args)
    except (_Validation, DomainError, FieldParseError, FileNotFoundError) as exc:
        print(f"ERROR {EXIT_VALIDATION}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AccuracyError, IntegrationError, SingularityError) as exc:
        print(f"ERROR {EXIT_NUMERICAL}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpinEqError as exc:
        print(f"ERROR {EXIT_NUMERICAL}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
