"""spineq benchmark: seeded single-client closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 15 --trace 0

Workloads: verify-sweep, propagate-mix and cli-session (see their modules).
Inputs come from --seed alone. Each op's outcome is checked against an
independent reference after the timed phase, and the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones. On a virtual machine
whose cores are shared, the host's speed drifts by up to a half over tens of
seconds as neighbours come and go (seen on a 2-vCPU VM: from one 15-second
run to the next, ops per second ranged over a factor of 1.4). Two things
keep the figures steady:

* a run makes ``passes`` timed passes over the same ops and each op counts
  at its best pass (the min-of-N practice timeit follows);
* for the in-process workloads, every time is scaled to a reference host
  speed (harness.HostSpeed): a fixed kernel that uses no spineq code is
  timed at most 0.1 s before each op, and the op's time is multiplied by
  REFERENCE_S / (kernel time). Over ten seeds this cut the quartile spread
  of verify-sweep's ops_per_s from 0.29 to 0.07 and of op_p50_ms from 0.16
  to 0.02; the unscaled figures are printed in the meta line. cli-session
  is not scaled: a kernel timed in this process does not follow the speed
  its child interpreters see (their correlation was about zero), and one
  timed in a child before each op gained nothing over the raw times.

From those per-op times:

* ops_per_s      ops / the sum of their times: one closed-loop client's rate;
* op_p50_ms      the median op time;
* op_tail_ms     the time at the highest percentile with ten ops beyond it;
* cpu_ms_per_op  CPU time (user + system, this process and its children);
* setup_s        start of the benchmark to its first timed op (import spineq,
                 input generation and warm-up), the median of three set-ups:
                 this one and two more in fresh interpreters;
* peak_rss_mb    peak resident memory of the process, or of the largest
                 child for cli-session;
* ok_ratio       ops whose outcome was the expected one / ops attempted.
                 It is 1 - failed_ratio, stated so that it is never zero.

The run's ``failed`` count leaves out the inputs listed as known defects in
cli_session.KNOWN_DEFECTS; ok_ratio counts them.

With --trace 1 each op runs twice, untraced and traced, for
trace.overhead_share; spans go around every call the benchmark makes into a
spineq module, layer probes follow (layers.py), and the per-layer metrics
come from the spans, which are written to .perfbench_runs/ when the run ends.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (NULL_TRACER, ROOT, SRC, HostSpeed, Tracer,  # noqa: E402
                     cpu_seconds, median, percentile, run_metadata, tail_percentile)

WORKLOADS = ("verify-sweep", "propagate-mix", "cli-session")
OUT_DIR = ROOT / ".perfbench_runs"
SETUP_ROUNDS = 3
CHILD_TIMEOUT = 170.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for the "
                         "repeated set-up rounds)")
    return ap.parse_args(argv)


def set_up(name: str, seed: int, workdir: Path):
    """Import spineq, generate the inputs of the first group and warm up."""
    sys.path.insert(0, str(SRC))
    if name == "verify-sweep":
        from verify_sweep import VerifySweep as cls
    elif name == "propagate-mix":
        from propagate_mix import PropagateMix as cls
    else:
        from cli_session import CliSession as cls
    wl = cls(seed, workdir)
    for i in range(wl.group):
        wl.op(i)
    wl.warm_up()
    return wl


@dataclass
class Execution:
    latency: float
    cpu: float
    summary: object
    error: str | None
    ref_s: float | None     # the reference kernel's time just before the op


def execute(wl, op, tr, host: HostSpeed | None = None) -> Execution:
    ref_s = host.refresh() if host else None
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with tr.span("bench.op", op.id):
            raw = wl.run(op, tr)
        error = None
    except Exception as exc:  # an exception out of spineq is a failed op
        raw, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    summary = None
    if error is None:
        try:
            summary = wl.summarize(op, raw)
        except Exception as exc:  # malformed output is a failed op
            error = f"output: {type(exc).__name__}: {exc}"
    return Execution(latency, cpu, summary, error, ref_s)


def draw_ops(wl, seconds: float, run_group):
    """Draw ops in whole groups until `seconds` have passed; run_group runs each."""
    ops = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        group = [wl.op(len(ops) + k) for k in range(wl.group)]
        ops += group
        run_group(group)
    return ops


def misses(wl, ops, columns):
    """(op, message) for every execution whose outcome was not the expected one.

    columns[p][i] is the execution of ops[i] in pass p.
    """
    out = []
    by_id = {op.id: op for op in ops}
    for col in columns:
        ok = [(op, ex.summary) for op, ex in zip(ops, col) if ex.error is None]
        out += [(op, ex.error) for op, ex in zip(ops, col) if ex.error is not None]
        out += [(by_id[i], msg) for i, msg in wl.check_all(ok)]
    return out


def outcome(wl, ops, columns):
    bad = misses(wl, ops, columns)
    attempted = len(ops) * len(columns)
    known = [(op, msg) for op, msg in bad if getattr(op, "defect", None)]
    unexpected = [(op, msg) for op, msg in bad if not getattr(op, "defect", None)]
    info = {
        "attempted": attempted,
        "failed_ratio": len(bad) / attempted,
        "known_defect_misses": sorted({op.name for op, _ in known}),
        "unexpected_misses": [f"op {op.id}: {msg}" for op, msg in unexpected[:20]],
    }
    return attempted, len(unexpected), 1.0 - len(bad) / attempted, info


def repeat_set_up(args) -> list[tuple[float, float]]:
    """(set-up time, reference time) of SETUP_ROUNDS - 1 more set-ups, each in
    a fresh interpreter."""
    out = []
    for _ in range(SETUP_ROUNDS - 1):
        p = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", args.workload, "--seed", str(args.seed),
                            "--setup-only"], cwd=ROOT, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT)
        if p.returncode != 0:
            raise RuntimeError(f"set-up round failed: {p.stderr.strip()[-500:]}")
        last = json.loads(p.stdout.splitlines()[-1])
        out.append((last["setup_s"], last["ref_s"]))
    return out


def scale(t: float, ref_s: float | None) -> float:
    """t scaled to the reference host speed; unscaled where no reference was taken."""
    return t * HostSpeed.REFERENCE_S / ref_s if ref_s else t


def end_to_end(wl, args, setup: tuple[float, float | None]):
    host = HostSpeed() if wl.scaled else None
    columns = [[] for _ in range(wl.passes)]
    ops = draw_ops(wl, args.seconds / wl.passes,
                   lambda group: columns[0].extend(execute(wl, op, NULL_TRACER, host)
                                                   for op in group))
    for col in columns[1:]:
        col.extend(execute(wl, op, NULL_TRACER, host) for op in ops)
    wall = time.perf_counter() - T_START - setup[0]
    rss_kb = wl.peak_rss_kb(resource.getrusage(resource.RUSAGE_SELF),
                            resource.getrusage(resource.RUSAGE_CHILDREN))
    setups = [setup] + repeat_set_up(args)

    def best(attr, scaled):
        """Each op's best pass, scaled to the reference host speed or not."""
        return [min(scale(getattr(ex, attr), ex.ref_s if scaled else None)
                    for ex in (col[i] for col in columns)) for i in range(len(ops))]

    q = tail_percentile(len(ops))

    def timing(scaled):
        lat, cpu = best("latency", scaled), best("cpu", scaled)
        return {
            "ops_per_s": (len(ops) / sum(lat), "1/s"),
            "op_p50_ms": (median(lat) * 1e3, "ms"),
            "op_tail_ms": (percentile(lat, q) * 1e3, "ms"),
            "cpu_ms_per_op": (sum(cpu) / len(cpu) * 1e3, "ms"),
            "setup_s": (median(scale(t, r if scaled else None) for t, r in setups), "s"),
        }

    attempted, failed, ok_ratio, info = outcome(wl, ops, columns)
    metrics = {**timing(scaled=True),
               "peak_rss_mb": (rss_kb / 1024.0, "MB"),
               "ok_ratio": (ok_ratio, "ratio")}
    samples = {
        "ops": len(ops), "passes": wl.passes, "tail_percentile": round(q, 2),
        "timed_wall_s": wall, "wall_ops_per_s": attempted / wall,
        "setup_rounds_s": [t for t, _ in setups], **info,
    }
    if wl.scaled:
        samples["reference_ms"] = 1e3 * median(ex.ref_s for col in columns for ex in col)
        samples["unscaled"] = {k: v for k, (v, _) in timing(scaled=False).items()}
    return metrics, samples, attempted, failed


def traced(wl, args, workdir: Path):
    import layers

    tr = Tracer()
    plain, traced_ = [], []

    def run_pair(group):
        for op in group:  # alternate which side runs first
            first, second = (NULL_TRACER, tr) if op.id % 2 == 0 else (tr, NULL_TRACER)
            a, b = execute(wl, op, first), execute(wl, op, second)
            plain.append(a if first is NULL_TRACER else b)
            traced_.append(b if first is NULL_TRACER else a)

    ops = draw_ops(wl, args.seconds / 2, run_pair)
    attempted, failed, _, info = outcome(wl, ops, [plain, traced_])
    t_plain = sum(ex.latency for ex in plain)
    t_traced = sum(ex.latency for ex in traced_)
    workload_spans = len(tr.spans)
    metrics = layers.probe_all(tr, args.seed, workdir)
    metrics["trace.overhead_share"] = ((t_traced - t_plain) / t_plain, "ratio")
    samples = {"ops": len(ops), "workload_spans": workload_spans,
               "probe_spans": len(tr.spans) - workload_spans,
               "untraced_s": t_plain, "traced_s": t_traced, **info}
    return metrics, samples, attempted, failed, tr


def write_spans(tr, path: Path, meta: dict):
    self_times = tr.self_times()
    doc = {"meta": meta, "spans": [
        {"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
         "op": sp.op_id, "self": st, **({"attrs": sp.attrs} if sp.attrs else {})}
        for sp, st in zip(tr.spans, self_times)]}
    path.write_text(json.dumps(doc, default=str))


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if not (SRC / "spineq" / "__init__.py").is_file():
        print(f"no spineq sources under {SRC}; run from a spineq checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = set_up(args.workload, args.seed, workdir)
        setup = (time.perf_counter() - T_START,
                 HostSpeed().settled() if wl.scaled else None)
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "ref_s": setup[1]}))
            return 0
        meta = run_metadata(args.workload, args.seed)
        if args.trace:
            metrics, samples, attempted, failed, tr = traced(wl, args, workdir)
            span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            write_spans(tr, span_file, {**meta, **samples})
            samples["span_file"] = str(span_file.relative_to(ROOT))
        else:
            metrics, samples, attempted, failed = end_to_end(wl, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>14} {name:<34} {value:>14.6g} {unit}")
    print("meta " + json.dumps({**meta, **samples}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
