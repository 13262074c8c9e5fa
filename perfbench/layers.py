"""Layer probes for the traced run.

Every traced run, whatever its workload, measures every layer, so that each
per-layer metric exists on each workload. The probes reuse the workloads'
seeded inputs: catalog and dynamics.se_residual use verify-sweep's
parameters, expr/fields/spinors/dynamics/solutions use propagate-mix's
fields, and cli, reductions, darboux and dynamics.bloch_propagate use
cli-session's script. Spans go around the benchmark's calls into each
module's public functions (a batch of calls shares one span, with its size
in ``calls``); all figures below are derived from those spans, and times
are raw, not scaled to a reference host speed. Spans inside spineq, and so
the attribution of nested calls such as specfun inside catalog, are left to
the program.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys

import numpy as np

from cli_session import build_script, darboux_inputs, reduce_inputs
from harness import child_env, median
from propagate_mix import PropagateMix
from verify_sweep import VerifySweep
from spineq import catalog, cli, dynamics, expr, fields, specfun, spinors
from spineq import darboux, reductions, solutions

PROBE = "probe"
REPEATS = 3
IMPORT_REPEATS = 5
BUSY_LAYERS = ("cli", "fields", "specfun", "catalog", "dynamics", "solutions")
# In-process cli.run cannot be interrupted, so the op that never returns is
# left out, and so is the 6-second pole op.
IN_PROCESS_SKIP = ("window-inf", "pole")


def _batch(tr, name, fn, items, repeats=REPEATS, **attrs) -> float:
    """Median seconds per call of fn over items, one span per repeat."""
    per_call = []
    for _ in range(repeats):
        with tr.span(name, PROBE, calls=len(items), **attrs) as sp:
            for it in items:
                fn(it)
        per_call.append(sp.dur / len(items))
    return median(per_call)


def _each(tr, name, fn, items, **attrs) -> list[tuple[float, object]]:
    """(seconds, result) of each call fn(item), one span per call."""
    out = []
    for it in items:
        with tr.span(name, PROBE, **attrs) as sp:
            res = fn(it)
        out.append((sp.dur, res))
    return out


# ---------------------------------------------------------------------------

def probe_import(tr) -> dict:
    def run(code):
        p = subprocess.run([sys.executable, "-c", code], env=child_env(),
                           capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            raise RuntimeError(f"python -c {code!r} failed: {p.stderr[-300:]}")
        return p.stdout

    python = _each(tr, "import.python", lambda _: run("pass"), range(IMPORT_REPEATS))
    spineq_ = _each(tr, "import.spineq", lambda _: run("import spineq"),
                    range(IMPORT_REPEATS))
    counts = run("import sys, spineq; "
                 "print(len(sys.modules), int('scipy.integrate' in sys.modules))").split()
    return {
        "import.python_ms": (median(d for d, _ in python) * 1e3, "ms"),
        "import.spineq_ms": (median(d for d, _ in spineq_) * 1e3, "ms"),
        "import.modules_count": (int(counts[0]), "count"),
        "import.scipy_integrate_loaded": (int(counts[1]), "count"),
    }


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception:  # what the interpreter turns into an exit-1 traceback
            code = 1
    return code, len(out.getvalue().encode())


def probe_cli(tr, script) -> dict:
    ops = [op for op in script if op.name not in IN_PROCESS_SKIP]
    runs = _each(tr, "cli.run", lambda op: _cli_run(op.argv), ops)
    mismatch = sum(code not in op.expect for op, (_, (code, _)) in zip(ops, runs))
    out_bytes = sum(n for _, (_, n) in runs)
    verify_all, serial = [], []
    for _ in range(REPEATS):
        with tr.span("cli.run", PROBE, label="verify-all") as sp:
            _cli_run(("verify", "--all"))
        verify_all.append(sp.dur)
        serial.append(sum(d for d, _ in _each(
            tr, "catalog.verify_entry", catalog.verify_entry,
            range(1, catalog.N_ENTRIES + 1), n_points=50, label="serial")))
    return {
        "cli.run_ms": (median(d for d, _ in runs) * 1e3, "ms"),
        "cli.verify_all_ms": (median(verify_all) * 1e3, "ms"),
        "cli.verify_all_pool_ratio": (median(verify_all) / median(serial), "ratio"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "cli.exit_mismatch": (mismatch, "count"),
    }


def _field_inputs(pm: PropagateMix):
    """One group per entry: (entry id, params, window, expr text, catalog text)."""
    out = []
    for g in range(catalog.N_ENTRIES):
        ops = [pm.op(g * pm.group + k) for k in range(pm.group)]
        texts = {op.kind: op.text for op in ops if op.profile == "solve"}
        out.append((ops[0].entry_id, ops[0].params, ops[0].window,
                    texts["expr"], texts["catalog"]))
    return out


def probe_fields(tr, inputs) -> tuple[dict, dict]:
    dsls = [catalog.entry(eid).field_dsl for eid, *_ in inputs]
    texts = [t for *_, te, tc in inputs for t in (te, tc)]
    specs = {kind: [fields.load_field_json(io.StringIO(t)) for t in ts]
             for kind, ts in (("expr", [i[3] for i in inputs]),
                              ("catalog", [i[4] for i in inputs]))}
    # the trajectory nodes of the solve-heavy profile
    calls = {kind: [(fields.field_callable(s), t) for s, (_, _, win, *_) in
                    zip(specs[kind], inputs) for t in np.linspace(win[0], win[1], 101)]
             for kind in specs}
    samples = [fn(t) for fn, t in calls["catalog"]]
    y = np.array([0.6 + 0.1j, -0.3 + 0.7j])
    eval_us = {kind: _batch(tr, f"fields.eval_{kind}", lambda c: c[0](c[1]),
                            calls[kind]) * 1e6 for kind in calls}
    metrics = {
        "expr.parse_us": (_batch(tr, "expr.parse_statements", expr.parse_statements,
                                 dsls) * 1e6, "us"),
        "fields.load_json_us": (_batch(tr, "fields.load_field_json",
                                       lambda t: fields.load_field_json(io.StringIO(t)),
                                       texts) * 1e6, "us"),
        "fields.eval_expr_us": (eval_us["expr"], "us"),
        "fields.eval_catalog_us": (eval_us["catalog"], "us"),
        "spinors.sigma_dot_us": (_batch(tr, "spinors.sigma_dot",
                                        lambda F: spinors.sigma_dot(F) @ y,
                                        samples) * 1e6, "us"),
    }
    return metrics, specs


# ---------------------------------------------------------------------------

def specfun_args(seed: int, n: int = 300):
    """Seeded arguments over the catalog's region.

    The 2F1 and 1F1 points follow the generators of benchmarks/bench_series.py;
    the parabolic_d points are entry 16's D_mu(z) and D_{mu-1}(z) on the
    arg z = pi/4 ray, mu = -i a^2/(2b), z = (1+i)(bt+c)/sqrt(b).
    """
    rng = np.random.default_rng([seed, 4])

    def c(lo, hi, ilo, ihi):
        return complex(rng.uniform(lo, hi), rng.uniform(ilo, ihi))

    pts_2f1 = [(c(-1, 1, -1, 1), c(-1, 1, -1, 1), c(0.5, 2, -1, 1),
                c(-0.85, 0.85, -0.3, 0.3)) for _ in range(n)]
    pts_1f1 = [(c(-1, 1, -1, 1), c(0.5, 2, -1, 1), c(-4, 4, -4, 4)) for _ in range(n)]
    pts_pd = []
    for k in range(n):
        a, b = rng.uniform(0.8, 1.3), rng.uniform(0.6, 1.4)
        cc, t = rng.uniform(0.15, 0.45), rng.uniform(0.2, 2.0)
        mu = -1j * a * a / (2 * b)
        pts_pd.append((mu - (k % 2), (1 + 1j) * (b * t + cc) / math.sqrt(b)))
    # the reciprocal-gamma arguments parabolic_d evaluates
    pts_gamma = [z for p, _ in pts_pd for z in (0.5 * (1 - p), -0.5 * p)]
    return pts_2f1, pts_1f1, pts_pd, pts_gamma


def probe_specfun(tr, seed: int) -> dict:
    import mpmath

    pts_2f1, pts_1f1, pts_pd, pts_gamma = specfun_args(seed)
    us = {
        "kummer_phi": _batch(tr, "specfun.kummer_phi", lambda p: specfun.kummer_phi(*p),
                             pts_1f1),
        "gauss_2f1": _batch(tr, "specfun.gauss_2f1", lambda p: specfun.gauss_2f1(*p),
                            pts_2f1),
        "parabolic_d": _batch(tr, "specfun.parabolic_d", lambda p: specfun.parabolic_d(*p),
                              pts_pd),
        "complex_gamma": _batch(tr, "specfun.complex_gamma", specfun.complex_gamma,
                                pts_gamma),
    }
    k_info = [specfun.kummer_phi_info(*p) for p in pts_1f1]
    g_info = [specfun.gauss_2f1_info(*p) for p in pts_2f1]
    worst = 0.0
    with mpmath.workdps(30):
        pairs = ([(i.value, mpmath.hyp1f1(*p)) for i, p in zip(k_info, pts_1f1)]
                 + [(i.value, mpmath.hyp2f1(*p)) for i, p in zip(g_info, pts_2f1)]
                 + [(specfun.parabolic_d(*p), mpmath.pcfd(*p)) for p in pts_pd])
        for value, ref in pairs:
            ref = complex(ref)
            worst = max(worst, abs(value - ref) / abs(ref))
    return {
        **{f"specfun.{k}_us": (v * 1e6, "us") for k, v in us.items()},
        "specfun.kummer_terms_mean": (float(np.mean([i.terms_used for i in k_info])),
                                      "count"),
        "specfun.gauss_terms_mean": (float(np.mean([i.terms_used for i in g_info])),
                                     "count"),
        "specfun.max_rel_err_mpmath": (worst, "ratio"),
    }


# ---------------------------------------------------------------------------

def probe_catalog(tr, vs: VerifySweep) -> dict:
    cases = [(op.entry_id, op.params) for op in (vs.op(i) for i in range(catalog.N_ENTRIES))]
    ms = {}
    for n in (50, 400):
        runs = _each(tr, "catalog.verify_entry", lambda c: catalog.verify_entry(
            c[0], c[1], n_points=n), cases, n_points=n)
        ms[n] = median(d for d, _ in runs) * 1e3
    nodes = [(eid, p, t) for eid, p in cases
             for t in np.linspace(*catalog.entry(eid).window_for(p), 20)]
    residual_calls = [_residual_call(catalog.entry(eid), p, t) for eid, p in cases
                      for t in np.linspace(*catalog.entry(eid).window_for(p), 5)]
    return {
        "catalog.verify_entry_50_ms": (ms[50], "ms"),
        "catalog.verify_entry_400_ms": (ms[400], "ms"),
        "catalog.entry_solution_us": (_batch(tr, "catalog.entry_solution",
                                             lambda c: catalog.entry_solution(*c),
                                             nodes) * 1e6, "us"),
        "catalog.entry_field_us": (_batch(tr, "catalog.entry_field",
                                          lambda c: catalog.entry_field(*c),
                                          nodes) * 1e6, "us"),
        "dynamics.se_residual_us": (_batch(tr, "dynamics.se_residual",
                                           lambda c: dynamics.se_residual(*c),
                                           residual_calls) * 1e6, "us"),
    }


def _residual_call(e, params, t):
    """dynamics.se_residual arguments as verify_entry builds them."""
    q = e.merged(params)

    def u_fn(s):
        return np.array(e.solution_components(s, q))

    def f_fn(s):
        f1, f3 = e.field_components(s, q)
        return np.array([f1, 0j, f3])

    return u_fn, f_fn, t


def probe_propagation(tr, inputs, specs, eval_us) -> dict:
    """Both profiles of propagate-mix, the inversion and the CSV writer."""
    solve = {kind: [] for kind in specs}
    write = {kind: [] for kind in specs}
    for kind in specs:
        for (eid, p, win, *_), spec in zip(inputs, specs[kind]):
            u0 = catalog.entry_solution(eid, p, win[0])
            with tr.span("dynamics.propagate", PROBE, kind=kind, profile="solve") as sp:
                traj = dynamics.propagate(spec, u0, win, tol=1e-10, n_nodes=101)
            solve[kind].append((sp.dur, traj))
            with tr.span("dynamics.propagate", PROBE, kind=kind, profile="write") as sp:
                traj = dynamics.propagate(spec, u0, win, tol=1e-6, n_nodes=2001)
            write[kind].append((sp.dur, traj))
    trajs = [t for runs in solve.values() for _, t in runs]
    gauge = _each(tr, "solutions.gauge_from_field", solutions.gauge_from_field, trajs)
    invert = _each(tr, "solutions.invert_field",
                   lambda tc: solutions.invert_field(tc[0], c=tc[1]),
                   [(t, c) for t, (_, c) in zip(trajs, gauge)])
    # re-sampling evaluates the field once per output node after the solve
    share = [len(t.times) * eval_us[kind] * 1e-6 / d
             for kind, runs in write.items() for d, t in runs]
    csv_trajs = [t for runs in write.values() for _, t in runs[:3]]
    csv_s = sum(d for d, _ in _each(tr, "dynamics.to_csv",
                                    lambda t: t.to_csv(io.StringIO()), csv_trajs))
    return {
        "dynamics.propagate_expr_ms": (median(d for d, _ in solve["expr"]) * 1e3, "ms"),
        "dynamics.propagate_catalog_ms": (median(d for d, _ in solve["catalog"]) * 1e3,
                                          "ms"),
        "dynamics.resample_share": (median(share), "ratio"),
        "dynamics.to_csv_us_per_row": (csv_s / sum(len(t.times) for t in csv_trajs) * 1e6,
                                       "us"),
        "solutions.gauge_from_field_ms": (median(d for d, _ in gauge) * 1e3, "ms"),
        "solutions.invert_field_ms": (median(d for d, _ in invert) * 1e3, "ms"),
    }


def probe_session_layers(tr, script) -> dict:
    """bloch, reduce and darboux on the cli-session script's inputs."""
    ref = {op.name: op.ref for op in script}
    b = ref["bloch"]
    spec = fields.load_field_json(b["field"])
    bloch = _each(tr, "dynamics.bloch_propagate", lambda _: dynamics.bloch_propagate(
        spec, dynamics.BlochState(b["n0"], 0.0, 1.0), b["window"], n_nodes=b["nodes"]),
        range(REPEATS))
    rspec, plan, times = reduce_inputs(ref["reduce"])
    reduce_us = _batch(tr, "reductions.reduce_field",
                       lambda t: reductions.reduce_field(rspec, plan, t), times) * 1e6
    traj, eps, pair = darboux_inputs(ref["darboux"])
    dx = _each(tr, "darboux.darboux_apply",
               lambda _: darboux.darboux_apply(traj, eps, pair), range(REPEATS))
    return {
        "dynamics.bloch_propagate_ms": (median(t for t, _ in bloch) * 1e3, "ms"),
        "reductions.reduce_field_us": (reduce_us, "us"),
        "darboux.darboux_apply_ms": (median(t for t, _ in dx) * 1e3, "ms"),
    }


def busy(tr) -> dict:
    """Summed self time of all spans into each layer, workload and probes."""
    totals = dict.fromkeys(BUSY_LAYERS, 0.0)
    for sp, self_s in zip(tr.spans, tr.self_times()):
        if sp.layer in totals:
            totals[sp.layer] += self_s
    return {f"{layer}.busy_s": (v, "s") for layer, v in totals.items()}


def probe_all(tr, seed: int, workdir) -> dict:
    script = build_script(seed, workdir / "probe")
    inputs = _field_inputs(PropagateMix(seed))
    metrics = probe_import(tr)
    metrics.update(probe_cli(tr, script))
    field_metrics, specs = probe_fields(tr, inputs)
    metrics.update(field_metrics)
    metrics.update(probe_specfun(tr, seed))
    metrics.update(probe_catalog(tr, VerifySweep(seed)))
    eval_us = {k: metrics[f"fields.eval_{k}_us"][0] for k in ("expr", "catalog")}
    metrics.update(probe_propagation(tr, inputs, specs, eval_us))
    metrics.update(probe_session_layers(tr, script))
    metrics.update(busy(tr))
    return metrics
