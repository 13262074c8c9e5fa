"""verify-sweep: residual-verify catalog entries with seeded parameters.

One op is ``catalog.verify_entry(id, params, n_points)``, with parameters
freshly drawn by ``CatalogEntry.draw_params`` on the entry's default window.
Ops come in groups of four: three at the CLI's default of 50 points, on
entries taken from a seeded permutation of 1..26, and one at 400 points,
with the 400-point ops visiting the entries in id order. So the median op is
a 50-point op and the tail is a 400-point op, the larger grid varies the
working-set size, and which entries make up the tail depends on how many ops
a run gets through, not on the seed. The time goes to the specfun series
inside the closed forms and to ``dynamics.se_residual``; there is no
solve_ivp, no DSL and no CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spineq import catalog

RESIDUAL_TOL = 1e-6
GROUP = 4  # three 50-point ops, then one 400-point op


@dataclass(frozen=True)
class Op:
    id: int
    entry_id: int
    params: dict
    n_points: int


class VerifySweep:
    name = "verify-sweep"
    group = GROUP
    passes = 2
    scaled = True

    def __init__(self, seed: int, workdir=None):
        self.rng = np.random.default_rng([seed, 1])
        self.order: list[int] = []
        self.n_small = 0
        self.ops: list[Op] = []

    def op(self, i: int) -> Op:
        while len(self.ops) <= i:
            k = len(self.ops)
            if k % GROUP == GROUP - 1:
                entry_id, n_points = k // GROUP % catalog.N_ENTRIES + 1, 400
            else:
                if self.n_small % catalog.N_ENTRIES == 0:
                    self.order = [int(x) + 1
                                  for x in self.rng.permutation(catalog.N_ENTRIES)]
                entry_id, n_points = self.order[self.n_small % catalog.N_ENTRIES], 50
                self.n_small += 1
            self.ops.append(Op(k, entry_id, catalog.entry(entry_id).draw_params(self.rng),
                               n_points))
        return self.ops[i]

    def warm_up(self):
        for e in catalog.entries():
            catalog.verify_entry(e.id, n_points=20)

    def run(self, op: Op, tr):
        with tr.span("catalog.verify_entry", op.id, n_points=op.n_points):
            return catalog.verify_entry(op.entry_id, op.params, n_points=op.n_points)

    def summarize(self, op: Op, rep):
        return (rep.max_residual, rep.flagged, len(rep.residuals))

    def check_all(self, executions) -> list[tuple[int, str]]:
        fails = []
        for op, (max_residual, flagged, n) in executions:
            if n != op.n_points:
                fails.append((op.id, f"{n} residuals for {op.n_points} points"))
            elif not (max_residual <= RESIDUAL_TOL or flagged):
                fails.append((op.id, f"entry {op.entry_id}: max residual "
                                     f"{max_residual:.3e} > {RESIDUAL_TOL}"))
        return fails

    def peak_rss_kb(self, usage_self, usage_children) -> int:
        return usage_self.ru_maxrss
