"""propagate-mix: load, propagate and post-process fields in process.

Ops come in groups of three over one catalog entry with freshly drawn
parameters on its default window. The field is loaded through
``fields.load_field_json`` as ``kind: expr`` (the entry's ``field_dsl``) or
as ``kind: catalog`` and propagated from ``catalog.entry_solution`` at t0 in
one of two profiles:

* solve-heavy, once per kind: tol 1e-10 on 101 nodes, then
  ``solutions.gauge_from_field`` and ``invert_field``;
* write-heavy, with the kinds taking turns from group to group: tol 1e-6 on
  2001 nodes, then ``Trajectory.to_csv`` into memory.

A write-heavy op costs about six solve-heavy ones, so two solve-heavy ops
per write-heavy one keep the median inside the solve-heavy class and the
tail inside the write-heavy class, rather than on the gap between them.

The work goes to field evaluation in the right-hand side, solve_ivp,
re-sampling, inversion and CSV formatting; specfun is almost idle. Running
the same field as DSL and as catalog shows a change that speeds one field
path at the cost of the other, and the two profiles separate solver cost
from re-sample and write cost.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from harness import NULL_TRACER, TRAJECTORY_HEADER
from spineq import catalog
from spineq.dynamics import propagate
from spineq.fields import load_field_json
from spineq.solutions import gauge_from_field, invert_field

SOLVE = ("solve", 1e-10, 101)   # (profile, tol, nodes)
WRITE = ("write", 1e-6, 2001)
KINDS = ("expr", "catalog")
# The final state must match the closed form within ERR_FACTOR * tol, and
# the DSL and catalog runs of one field within AGREE_FACTOR * tol.
ERR_FACTOR = 10.0
AGREE_FACTOR = 10.0
# invert_field differentiates the sampled states with a 4th-order stencil;
# on the interior nodes of a 101-node grid the recovered field carries that
# finite-difference error, well below this bound.
INVERT_REL_TOL = 1e-3


@dataclass(frozen=True)
class Op:
    id: int
    group: int
    entry_id: int
    params: dict
    window: tuple[float, float]
    kind: str
    profile: str
    tol: float
    nodes: int
    text: str        # the JSON field file


def field_doc(entry_id: int, params: dict, kind: str) -> dict:
    pairs = {k: [complex(v).real, complex(v).imag] for k, v in params.items()}
    if kind == "expr":
        return {"kind": "expr", "defs": catalog.entry(entry_id).field_dsl,
                "params": pairs}
    return {"kind": "catalog", "defs": entry_id, "params": pairs}


class PropagateMix:
    name = "propagate-mix"
    group = 3
    passes = 2
    scaled = True

    def __init__(self, seed: int, workdir=None):
        self.rng = np.random.default_rng([seed, 2])
        self.order: list[int] = []
        self.ops: list[Op] = []

    def op(self, i: int) -> Op:
        while len(self.ops) <= i:
            g = len(self.ops) // self.group
            if g % catalog.N_ENTRIES == 0:
                self.order = [int(x) + 1 for x in self.rng.permutation(catalog.N_ENTRIES)]
            e = catalog.entry(self.order[g % catalog.N_ENTRIES])
            params = e.draw_params(self.rng)
            window = e.window_for(params)
            for kind, (profile, tol, nodes) in (("expr", SOLVE), ("catalog", SOLVE),
                                                (KINDS[g % 2], WRITE)):
                self.ops.append(Op(len(self.ops), g, e.id, params, window, kind,
                                   profile, tol, nodes,
                                   json.dumps(field_doc(e.id, params, kind))))
        return self.ops[i]

    def warm_up(self):
        for i in range(self.group):
            self.summarize(self.op(i), self.run(self.op(i), NULL_TRACER))

    def run(self, op: Op, tr):
        with tr.span("fields.load_field_json", op.id, kind=op.kind):
            spec = load_field_json(io.StringIO(op.text))
        with tr.span("catalog.entry_solution", op.id):
            u0 = catalog.entry_solution(op.entry_id, op.params, op.window[0])
        with tr.span("dynamics.propagate", op.id, kind=op.kind, profile=op.profile):
            traj = propagate(spec, u0, op.window, tol=op.tol, n_nodes=op.nodes)
        if op.profile == "solve":
            with tr.span("solutions.gauge_from_field", op.id):
                c = gauge_from_field(traj)
            with tr.span("solutions.invert_field", op.id):
                F = invert_field(traj, c=c)
            return traj, F
        buf = io.StringIO()
        with tr.span("dynamics.to_csv", op.id, rows=op.nodes):
            traj.to_csv(buf)
        return traj, buf

    def summarize(self, op: Op, raw):
        traj, out = raw
        final = traj.states[-1].copy()
        if op.profile == "solve":
            true = traj.field_samples[2:-2]
            dev = float(np.max(np.abs(out[2:-2] - true)) / np.max(np.abs(true)))
            return final, dev
        lines = out.getvalue().splitlines()
        last = np.array([float(x) for x in lines[-1].split(",")])
        expect = [traj.times[-1], final[0].real, final[0].imag, final[1].real, final[1].imag]
        return final, (lines[0], len(lines) - 1, bool(np.allclose(last[:5], expect,
                                                                   rtol=1e-15, atol=0)))

    def check_all(self, executions) -> list[tuple[int, str]]:
        fails = []
        exact = {}
        finals = {}
        for op, summary in executions:
            final, detail = summary
            key = (op.entry_id, op.group, op.window)
            if key not in exact:
                u = catalog.entry_solution(op.entry_id, op.params, op.window[1])
                exact[key] = np.array([u.v1, u.v2])
            ref = exact[key]
            err = float(np.linalg.norm(final - ref) / np.linalg.norm(ref))
            if not err <= ERR_FACTOR * op.tol:
                fails.append((op.id, f"entry {op.entry_id} {op.kind}/{op.profile}: "
                                     f"final state off the closed form by {err:.2e}"))
            other = finals.get((op.group, op.profile, _other(op.kind)))
            if other is not None:  # the DSL and catalog solve-heavy runs
                gap = float(np.linalg.norm(final - other) / np.linalg.norm(ref))
                if not gap <= AGREE_FACTOR * op.tol:
                    fails.append((op.id, f"entry {op.entry_id} {op.profile}: DSL and "
                                         f"catalog runs differ by {gap:.2e}"))
            finals[(op.group, op.profile, op.kind)] = final
            if op.profile == "solve":
                if not detail <= INVERT_REL_TOL:
                    fails.append((op.id, f"entry {op.entry_id}: inverted field off "
                                         f"by {detail:.2e}"))
            else:
                header, rows, last_ok = detail
                if header != TRAJECTORY_HEADER or rows != op.nodes or not last_ok:
                    fails.append((op.id, f"entry {op.entry_id}: CSV header/rows/values "
                                         f"wrong ({rows} rows)"))
        return fails

    def peak_rss_kb(self, usage_self, usage_children) -> int:
        return usage_self.ru_maxrss


def _other(kind: str) -> str:
    return "catalog" if kind == "expr" else "expr"
