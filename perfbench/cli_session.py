"""cli-session: drive ``python -m spineq.cli`` one subprocess at a time.

A seeded script of sixteen invocations covers ``catalog list/show``,
``verify --entry``, ``verify --all``, ``propagate``, ``invert``, ``bloch``,
``darboux`` and ``reduce`` on generated field files, plus a minority of
invalid inputs, each with the exit code the CLI contract (0 success,
2 validation error, 3 numerical failure) says it should return. Every op
pays interpreter start and ``import spineq``, so this is the only workload
where import, argparse and the ``verify --all`` thread pool matter; the
invalid ops sit beside the valid ones, so validation cost on the valid path
shows, and so do fail-fast gains on the error path.

Every op has a timeout, since one known defect never returns. The inputs in
KNOWN_DEFECTS fail at the commit that introduced this benchmark; they stay
in the script and count against ``ok_ratio`` (not against the run's
``failed`` count), so a fix shows as a rising ``ok_ratio``.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import TRAJECTORY_HEADER, child_env
from spineq import catalog
from spineq.darboux import constant_f_solution, darboux_apply, darboux_params_constant_f
from spineq.dynamics import BlochState, Trajectory, bloch_propagate, propagate
from spineq.expr import eval_expr, parse_expr
from spineq.fields import load_field_json
from spineq.reductions import ReductionPlan, reduce_field
from spineq.solutions import gauge_from_field, invert_field

# Inputs that fail at the commit that introduced the benchmark, and why
# (ROADMAP open item 2). The expected exit code is the contract's.
KNOWN_DEFECTS = {
    "json-malformed": "JSONDecodeError escapes as an exit-1 traceback",
    "json-no-defs": "KeyError on the missing 'defs' escapes as an exit-1 traceback",
    "nodes-0": "--nodes 0 raises AttributeError, an exit-1 traceback",
    "verify-w0": "verify --entry 5 --params w=0 raises ZeroDivisionError, exit 1",
    "window-inf": "propagate --window 0.2 inf never returns; killed at the timeout",
}

# An invalid input must be reported inside TIMEOUT_FAST; interpreter start
# and import make such an op take 0.7 to 1.5 s today, depending on how busy
# the host is. Work ops get TIMEOUT_WORK; the default-tolerance pole op takes
# 6 to 8 s today before it exits with code 3.
TIMEOUT_FAST = 5.0
TIMEOUT_WORK = 30.0

BLOCH_HEADER = "t,n1,n2,n3,alpha,N"
FIELD_HEADER = "t,re_F1,im_F1,re_F2,im_F2,re_F3,im_F3"
TRAJ_NODES = 201
INVERT_NODES = 101
# at the CLI's default tol 1e-10 the final state sits within 1e-11 of the
# closed form on the catalog's default windows
CLOSED_FORM_REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    id: int
    name: str
    argv: tuple[str, ...]
    expect: frozenset
    timeout: float
    output: str | None = None    # how stdout is parsed and checked
    ref: dict = field(default_factory=dict, compare=False)

    @property
    def defect(self) -> str | None:
        return KNOWN_DEFECTS.get(self.name)


def _num(x: float) -> str:
    return repr(float(x))


def _pairs(params: dict) -> dict:
    return {k: [complex(v).real, complex(v).imag] for k, v in params.items()}


def _write(path: Path, doc) -> str:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def build_script(seed: int, workdir: Path) -> list[Op]:
    """The seeded session: field files are written into workdir."""
    rng = np.random.default_rng([seed, 3])
    workdir.mkdir(parents=True, exist_ok=True)
    ids = [int(x) + 1 for x in rng.permutation(catalog.N_ENTRIES)]

    # propagate an expr field, invert and bloch a catalog field
    e1, e2, e_show, e_verify = (catalog.entry(i) for i in ids[:4])
    p1, p2, pv = e1.draw_params(rng), e2.draw_params(rng), e_verify.draw_params(rng)
    w1, w2 = e1.window_for(p1), e2.window_for(p2)
    expr_path = _write(workdir / "expr.json",
                       {"kind": "expr", "defs": e1.field_dsl, "params": _pairs(p1)})
    cat_path = _write(workdir / "catalog.json",
                      {"kind": "catalog", "defs": e2.id, "params": _pairs(p2)})
    u1 = catalog.entry_solution(e1.id, p1, w1[0])
    u2 = catalog.entry_solution(e2.id, p2, w2[0])
    v0_1 = ",".join(_num(x) for x in (u1.v1.real, u1.v1.imag, u1.v2.real, u1.v2.imag))
    v0_2 = ",".join(_num(x) for x in (u2.v1.real, u2.v1.imag, u2.v2.real, u2.v2.imag))
    n0 = rng.normal(size=3)
    n0 /= np.linalg.norm(n0)

    # rotating-frame Rabi field; alpha = (w/2) t makes the reduced field constant
    a, w, d = rng.uniform(0.4, 0.9), rng.uniform(0.8, 1.6), rng.uniform(0.1, 0.5)
    rabi_path = _write(workdir / "rabi.json", {
        "kind": "expr", "defs": "F1 = a*cos(w*t); F2 = a*sin(w*t); F3 = d",
        "params": _pairs({"a": a, "w": w, "d": d})})
    f, R = rng.uniform(0.3, 0.8), rng.uniform(0.9, 1.5)
    phi0, eps = rng.uniform(0.05, 0.3), rng.uniform(0.2, 0.5)
    darboux_params = f"f={_num(f)};R={_num(R)};phi0={_num(phi0)};eps={_num(eps)}"

    bad_path = _write(workdir / "malformed.json", '{"kind": "expr", "defs": "F1 = t"')
    nodefs_path = _write(workdir / "no_defs.json", {"kind": "expr", "params": {}})
    pole_path = _write(workdir / "pole.json",
                       {"kind": "expr", "defs": "F3 = 1/(t - 0.5)", "params": {}})
    win1 = ("--window", _num(w1[0]), _num(w1[1]))
    win2 = ("--window", _num(w2[0]), _num(w2[1]))
    # "--v0=..." since a value that starts with "-" would read as an option
    prop1 = ("propagate", "--field", expr_path, f"--v0={v0_1}")

    ok, bad, fast, work = frozenset({0}), frozenset({2}), TIMEOUT_FAST, TIMEOUT_WORK
    valid = [
        ("catalog-list", ("catalog", "list"), "list", {}),
        ("catalog-show", ("catalog", "show", str(e_show.id)), "show", {"id": e_show.id}),
        ("verify-entry", ("verify", "--entry", str(e_verify.id), "--params",
                          ";".join(f"{k}={_num(complex(v).real)}" for k, v in pv.items()),
                          "--format", "json"),
         "verify-entry", {"id": e_verify.id, "params": pv}),
        ("verify-all", ("verify", "--all"), "verify-all", {}),
        ("propagate", (*prop1, *win1, "--nodes", str(TRAJ_NODES)), "propagate",
         {"field": expr_path, "v0": v0_1, "window": w1, "nodes": TRAJ_NODES,
          "entry": e1.id, "params": p1}),
        ("invert", ("invert", "--field", cat_path, f"--v0={v0_2}", *win2,
                    "--nodes", str(INVERT_NODES)), "invert",
         {"field": cat_path, "v0": v0_2, "window": w2, "nodes": INVERT_NODES,
          "entry": e2.id, "params": p2}),
        ("bloch", ("bloch", "--field", cat_path, "--n0=" + ",".join(_num(x) for x in n0),
                   *win2, "--nodes", str(TRAJ_NODES)), "bloch",
         {"field": cat_path, "n0": n0, "window": w2, "nodes": TRAJ_NODES}),
        ("darboux", ("darboux", "--params", darboux_params, "--window", "0", "2",
                     "--nodes", str(TRAJ_NODES)), "darboux",
         {"f": f, "R": R, "phi0": phi0, "eps": eps, "window": (0.0, 2.0),
          "nodes": TRAJ_NODES}),
        ("reduce", ("reduce", "--field", rabi_path, "--l", "0,0,1",
                    "--alpha", f"{_num(w / 2)}*t", "--alpha-dot", _num(w / 2),
                    "--window", "0", "3", "--nodes", str(TRAJ_NODES)), "reduce",
         {"field": rabi_path, "h": w / 2, "a": a, "d": d, "window": (0.0, 3.0),
          "nodes": TRAJ_NODES}),
    ]
    invalid = [
        ("no-window", prop1, bad, fast),
        ("bad-tol", (*prop1, *win1, "--tol", "1e-15"), bad, fast),
        ("missing-file", ("propagate", "--field", str(workdir / "missing.json"),
                          "--v0", "1,0", "--window", "0", "1"), bad, fast),
        ("catalog-show-99", ("catalog", "show", "99"), bad, fast),
        ("bad-v0", ("propagate", "--field", expr_path, "--v0", "1,2,3", *win1), bad, fast),
    ]
    json_defect = [("json-malformed", ("propagate", "--field", bad_path, "--v0", "1,0",
                                       "--window", "0.2", "1"), bad, fast),
                   ("json-no-defs", ("propagate", "--field", nodefs_path, "--v0", "1,0",
                                     "--window", "0.2", "1"), bad, fast)]
    always = [
        json_defect[int(rng.integers(2))],
        ("nodes-0", (*prop1, *win1, "--nodes", "0"), bad, fast),
        ("verify-w0", ("verify", "--entry", "5", "--params", "w=0"), bad, fast),
        ("window-inf", (*prop1, "--window", "0.2", "inf"), bad, fast),
        # a DSL pole inside the window: exit 3 today, exit 2 once poles are declared
        ("pole", ("propagate", "--field", pole_path, "--v0", "1,0", "--window", "0", "1"),
         frozenset({2, 3}), work),
    ]
    picked = [invalid[int(i)] for i in rng.choice(len(invalid), size=2, replace=False)]
    script = [(name, argv, ok, work, out, ref) for name, argv, out, ref in valid]
    script += [(name, argv, exp, tmo, None, {}) for name, argv, exp, tmo in picked + always]
    order = rng.permutation(len(script))
    return [Op(k, *script[int(j)]) for k, j in enumerate(order)]


def run_cli(argv, timeout: float, cwd):
    """Run one CLI invocation; returns (exit code or "timeout", stdout)."""
    try:
        p = subprocess.run([sys.executable, "-m", "spineq.cli", *argv], cwd=cwd,
                           env=child_env(), capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return "timeout", b""
    return p.returncode, p.stdout


class CliSession:
    name = "cli-session"
    passes = 1
    scaled = False

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.script = build_script(seed, workdir)
        self.group = len(self.script)
        self._refs: dict = {}

    def op(self, i: int) -> Op:
        base = self.script[i % self.group]
        return Op(i, base.name, base.argv, base.expect, base.timeout, base.output, base.ref)

    def warm_up(self):
        run_cli(("catalog", "show", "1"), TIMEOUT_WORK, self.workdir)

    def run(self, op: Op, tr):
        with tr.span("cli.subprocess", op.id, label=op.name):
            return run_cli(op.argv, op.timeout, self.workdir)

    def summarize(self, op: Op, raw):
        """Exit code and parsed stdout; unparsable output raises (a failed op)."""
        code, out = raw
        return code, (_parse(op.output, out.decode()) if code == 0 and op.output else None)

    def check_all(self, executions) -> list[tuple[int, str]]:
        fails = []
        for op, (code, parsed) in executions:
            if code not in op.expect:
                msg = f"exit {code}, expected {sorted(op.expect)}"
            elif parsed is not None:
                msg = self._check_output(op, parsed)
            else:
                msg = None
            if msg:
                fails.append((op.id, f"{op.name}: {msg}"))
        return fails

    def _check_output(self, op: Op, parsed) -> str | None:
        kind, r = op.output, op.ref
        if kind == "list":
            return None if parsed == list(range(1, catalog.N_ENTRIES + 1)) else "wrong ids"
        if kind == "show":
            e = catalog.entry(r["id"])
            return None if parsed == (e.id, e.field_dsl) else "wrong entry"
        if kind == "verify-entry":
            entry_id, passed, residual = parsed
            # the CLI parses each parameter as a complex number
            params = {k: complex(complex(v).real) for k, v in r["params"].items()}
            ref = self._ref(op, lambda: catalog.verify_entry(
                r["id"], params, n_points=50).max_residual)
            if entry_id != r["id"] or not passed or not _close(residual, ref):
                return f"report {parsed} against library residual {ref:.3e}"
            return None
        if kind == "verify-all":
            ref = self._ref(op, lambda: [catalog.verify_entry(i).max_residual
                                         for i in range(1, catalog.N_ENTRIES + 1)])
            ids = [row[0] for row in parsed]
            if ids != list(range(1, catalog.N_ENTRIES + 1)):
                return "wrong entry rows"
            bad = [row for row, res in zip(parsed, ref)
                   if row[2] not in ("pass", "flagged") or not _close(row[1], res)]
            return f"rows {bad}" if bad else None
        header, rows = parsed
        if header != {"bloch": BLOCH_HEADER, "reduce": FIELD_HEADER}.get(kind,
                                                                       TRAJECTORY_HEADER):
            return f"header {header!r}"
        if rows.shape[0] != r["nodes"]:
            return f"{rows.shape[0]} rows for --nodes {r['nodes']}"
        ref = self._ref(op, lambda: _library_rows(kind, r))
        scale = max(1.0, float(np.max(np.abs(ref))))
        gap = float(np.max(np.abs(rows - ref)))
        if not gap <= 1e-9 * scale:
            return f"values differ from the library result by {gap:.3e}"
        if "entry" in r:  # the propagated states against the closed form at t1
            u = catalog.entry_solution(r["entry"], r["params"], r["window"][1])
            exact = np.array([u.v1.real, u.v1.imag, u.v2.real, u.v2.imag])
            err = float(np.linalg.norm(rows[-1, 1:5] - exact) / np.linalg.norm(exact))
            if not err <= CLOSED_FORM_REL_TOL:
                return f"final state off the closed form by {err:.2e}"
        if kind == "reduce":  # the rotating frame makes the field constant (a, 0, d - h)
            const = np.array([r["a"], 0, 0, 0, r["d"] - r["h"], 0])
            if not np.max(np.abs(rows[:, 1:] - const)) <= 1e-9:
                return "reduced field is not the constant rotating-frame field"
        return None

    def _ref(self, op: Op, compute):
        if op.name not in self._refs:
            self._refs[op.name] = compute()
        return self._refs[op.name]

    def peak_rss_kb(self, usage_self, usage_children) -> int:
        return usage_children.ru_maxrss


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-300


def _csv_rows(lines) -> np.ndarray:
    return np.array([[float(x) for x in ln.split(",")] for ln in lines])


def _parse(kind: str, text: str):
    if kind == "list":
        return [e["id"] for e in json.loads(text)["entries"]]
    if kind == "show":
        doc = json.loads(text)
        return doc["id"], doc["field_dsl"]
    if kind == "verify-entry":
        doc = json.loads(text)
        return doc["entry"], doc["passed"], float(doc["max_residual"])
    lines = text.splitlines()
    if kind == "verify-all":
        rows = [ln.split(None, 3) for ln in lines[1:]]
        return [(int(r[0]), float(r[1]), r[2]) for r in rows]
    if kind == "darboux":  # the CSV is followed by the pair's JSON descriptor
        lines = lines[:next(i for i, ln in enumerate(lines) if ln.startswith("{"))]
    return lines[0], _csv_rows(lines[1:])


def _traj_rows(traj: Trajectory) -> np.ndarray:
    buf = io.StringIO()
    traj.to_csv(buf)
    return _csv_rows(buf.getvalue().splitlines()[1:])


def darboux_inputs(r: dict):
    """(trajectory, eps, pair) the darboux op builds from its --params."""
    f, eps = complex(r["f"]), complex(r["eps"])
    times = np.linspace(*r["window"], r["nodes"])
    sol = constant_f_solution(f, eps, 1.0, 1.0)
    traj = Trajectory(times, np.array([sol(t) for t in times]),
                      np.array([(eps, 0j, f) for _ in times]), 0.0)
    return traj, eps, darboux_params_constant_f(f, r["R"], r["phi0"])


def reduce_inputs(r: dict):
    """(field spec, plan, times) the reduce op builds from its arguments."""
    alpha = parse_expr(f"{r['h']!r}*t")
    plan = ReductionPlan.make(np.array([0, 0, 1.0]), lambda t: eval_expr(alpha, t, {}),
                              lambda t: complex(r["h"]))
    return load_field_json(r["field"]), plan, np.linspace(*r["window"], r["nodes"])


def _library_rows(kind: str, r: dict) -> np.ndarray:
    """The same result computed in process through the library."""
    if kind in ("propagate", "invert"):
        v0 = np.array([float(x) for x in r["v0"].split(",")])
        traj = propagate(load_field_json(r["field"]), v0[0::2] + 1j * v0[1::2],
                         r["window"], n_nodes=r["nodes"])
        if kind == "invert":
            F = invert_field(traj, c=gauge_from_field(traj))
            traj = Trajectory(traj.times, traj.states, F, traj.est_error)
        return _traj_rows(traj)
    if kind == "bloch":
        path = bloch_propagate(load_field_json(r["field"]), BlochState(r["n0"], 0.0, 1.0),
                               r["window"], n_nodes=r["nodes"])
        return np.column_stack([path.times, path.n, path.alpha, path.N])
    if kind == "darboux":
        return _traj_rows(darboux_apply(*darboux_inputs(r)))
    spec, plan, times = reduce_inputs(r)
    samples = np.array([reduce_field(spec, plan, t).as_array() for t in times])
    return np.column_stack([times, samples.real[:, 0], samples.imag[:, 0],
                            samples.real[:, 1], samples.imag[:, 1],
                            samples.real[:, 2], samples.imag[:, 2]])
