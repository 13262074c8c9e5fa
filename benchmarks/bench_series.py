"""Benchmark the series kernels of spineq.specfun: the scalar loop, the
grid kernel against the scalar loop, two parameter sets on one stencil grid
summed in two passes and in one, and field sampling by array call against
the per-node loop; count the grid, one-pass and array-call values that are
bit-identical to the scalar, two-pass and per-node ones.  Then the
spin-equation residual of verify_entry: the per-point loop against
dynamics.se_residuals on all rows at once, and the residuals that are
bit-identical.  Then CSV writing: the per-row "%.16e" loop against the
vectorised formatter, its fallback share, and the values it writes
byte-identical to "%.16e" % v over random bit patterns.

Run:  python benchmarks/bench_series.py
"""

import time

import numpy as np

from spineq import catalog, dynamics, numutil
from spineq.fields import CatalogField, ExprField, field_callable, parse_field_spec
from spineq.numutil import E16, central_difference, csv_rows, default_step, stencil_nodes
from spineq.specfun import _grid_series, _hyp1f1_coefficient, _hyp2f1_coefficient, _series
from spineq.spinors import sigma_dot


def sweep_2f1(points):
    acc = 0.0
    for a, b, c, z in points:
        val, n, est = _series(_hyp2f1_coefficient(a, b, c), z)
        acc += abs(val)
    return acc


def sweep_1f1(points):
    acc = 0.0
    for a, c, z in points:
        val, n, est = _series(_hyp1f1_coefficient(a, c), z)
        acc += abs(val)
    return acc


def grid_2f1(a, b, c, z):
    """The grid kernel on one 2F1 job."""
    return _grid_series([(_hyp2f1_coefficient(a, b, c), z)])[0]


def grid_1f1(a, c, z):
    """The grid kernel on one 1F1 job."""
    return _grid_series([(_hyp1f1_coefficient(a, c), z)])[0]


def catalog_dsl_fields(n_nodes):
    """(callable, times) for each catalog field_dsl at its default parameters
    on n_nodes of its default window, as propagate samples them."""
    out = []
    for e in catalog.entries():
        p = e.merged(None)
        t0, t1 = e.window_for(p)
        spec = ExprField(parse_field_spec(e.field_dsl).defs, p)
        out.append((field_callable(spec), np.linspace(t0, t1, n_nodes)))
    return out


def sample_per_node(fields):
    return [np.array([fn(t) for t in times]) for fn, times in fields]


def sample_array(fields):
    return [fn(times) for fn, times in fields]


def residual_inputs(n_points):
    """(samples, F, h) of each catalog entry at its default parameters on
    n_points nodes of its default window, as verify_entry builds them: the
    (n_points, 5, 2) stencil samples, the fields and the (n_points, 1) steps."""
    out = []
    for e in catalog.entries():
        p = e.merged(None)
        times = np.linspace(*e.window_for(p), n_points)
        h = default_step(times)
        nodes = np.stack([*stencil_nodes(times, h), times], axis=1)
        t = np.array(list(nodes.ravel()), dtype=object)
        u = np.stack([np.asarray(ui, dtype=complex) for ui in e._solution(t, p)], axis=-1)
        out.append((u.reshape(n_points, 5, 2), field_callable(CatalogField(e.id, p))(times),
                    h[:, None]))
    return out


def residuals_per_point(inputs):
    """The per-point residual loop verify_entry ran before se_residuals."""
    return [np.array([np.linalg.norm(1j * central_difference(*s[:4], k) - sigma_dot(f) @ s[4])
                      / max(np.linalg.norm(s[4]), 1e-30) for s, f, k in zip(samples, F, h[:, 0])])
            for samples, F, h in inputs]


def residuals_rows(inputs):
    return [dynamics.se_residuals(samples, F, h) for samples, F, h in inputs]


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.int64).reshape(-1, 2)


def row_loop(table):
    """The CSV writers' row loop before the vectorised formatter."""
    row_fmt = ",".join([E16] * table.shape[1]) + "\n"
    return "".join(row_fmt % tuple(row) for row in table.tolist())


def formatter(table):
    return "".join(csv_rows(list(table.T)))


def timeit(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    rng = np.random.default_rng(7)
    pts_2f1 = [
        (
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)),
            complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.3, 0.3)),
        )
        for _ in range(2000)
    ]
    pts_1f1 = [
        (
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)),
            complex(rng.uniform(-4, 4), rng.uniform(-4, 4)),
        )
        for _ in range(2000)
    ]

    rows = []
    t_py = timeit(sweep_2f1, pts_2f1)
    rows.append(("2F1 series", "pure Python", t_py, 1.0))
    t_py = timeit(sweep_1f1, pts_1f1)
    rows.append(("1F1 series", "pure Python", t_py, 1.0))

    # the grid kernel sums one parameter set over an array of z, as the
    # catalog's closed forms call it on a residual stencil
    a, b, c, _ = pts_2f1[0]
    z_2f1 = np.array([z for *_, z in pts_2f1])
    t_py = timeit(sweep_2f1, [(a, b, c, z) for z in z_2f1])
    t_grid = timeit(grid_2f1, a, b, c, z_2f1)
    rows.append(("2F1 one set", "pure Python", t_py, 1.0))
    rows.append(("2F1 one set", "grid", t_grid, t_py / t_grid))
    a, c, _ = pts_1f1[0]
    z_1f1 = np.array([z for *_, z in pts_1f1])
    t_py = timeit(sweep_1f1, [(a, c, z) for z in z_1f1])
    t_grid = timeit(grid_1f1, a, c, z_1f1)
    rows.append(("1F1 one set", "pure Python", t_py, 1.0))
    rows.append(("1F1 one set", "grid", t_grid, t_py / t_grid))

    print(f"{'kernel':<12} {'method':<12} {'time (2000 evals)':>18} {'speedup':>9}")
    for name, method, t, speedup in rows:
        print(f"{name:<12} {method:<12} {t * 1e3:>15.2f} ms {speedup:>8.1f}x")

    # the grid kernel must reproduce the scalar loop bit for bit
    a, b, c, _ = pts_2f1[0]
    values, terms, _ = grid_2f1(a, b, c, z_2f1)
    scalar = [_series(_hyp2f1_coefficient(a, b, c), complex(z)) for z in z_2f1]
    same = np.count_nonzero(
        (_bits(values) == _bits([v for v, _, _ in scalar])).all(axis=1)
        & (terms == [n for _, n, _ in scalar]))
    print(f"\ngrid vs scalar (2F1, one parameter set): {same} of {len(z_2f1)} "
          "values and term counts bit-identical")

    # a closed form's two series on one stencil grid: 50 points of entry 9's
    # window, 5 nodes each, at z = tanh(t)^2, in a pass each or in one pass
    times = np.linspace(*catalog.entry(9).default_window, 50)
    z_grid = np.tanh(np.stack(stencil_nodes(times, default_step(times)) + (times,))).ravel() ** 2
    sets = [(a, b, c), (a + 1, b + 1, c + 1)]
    jobs = [(_hyp2f1_coefficient(*s), z_grid.astype(complex)) for s in sets]
    t_two = timeit(lambda: [grid_2f1(*s, z_grid) for s in sets], repeat=20)
    t_one = timeit(_grid_series, jobs, repeat=20)
    two = [grid_2f1(*s, z_grid) for s in sets]
    one = _grid_series(jobs)
    same = sum(np.count_nonzero((_bits(v1) == _bits(v2)).all(axis=1) & (n1 == n2)
                                & (_bits(e1) == _bits(e2)).all(axis=1))
               for (v1, n1, e1), (v2, n2, e2) in zip(one, two))
    print(f"\n2F1, 2 sets x {z_grid.size} stencil nodes: two passes {t_two * 1e3:.2f} ms, "
          f"one pass {t_one * 1e3:.2f} ms ({t_two / t_one:.2f}x); {same} of "
          f"{2 * z_grid.size} values, term counts and estimates bit-identical")

    # the array call must reproduce the per-node loop bit for bit
    fields = catalog_dsl_fields(2001)
    t_loop = timeit(sample_per_node, fields)
    t_array = timeit(sample_array, fields)
    print(f"\nfield sampling, {len(fields)} catalog DSLs x 2001 nodes: "
          f"per node {t_loop * 1e3:.1f} ms, array call {t_array * 1e3:.1f} ms "
          f"({t_loop / t_array:.1f}x)")
    same = sum(a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
               for a, b in zip(sample_array(fields), sample_per_node(fields)))
    print(f"array call vs per-node loop: {same} of {len(fields)} fields bit-identical")

    # the residual step of verify_entry at 400 points, closed forms excluded
    inputs = residual_inputs(400)
    t_loop = timeit(residuals_per_point, inputs)
    t_rows = timeit(residuals_rows, inputs)
    same = sum(np.count_nonzero(a.view(np.int64) == b.view(np.int64))
               for a, b in zip(residuals_rows(inputs), residuals_per_point(inputs)))
    print(f"\nresiduals, {len(inputs)} entries x 400 points: per point "
          f"{t_loop * 1e3:.1f} ms, se_residuals {t_rows * 1e3:.2f} ms "
          f"({t_loop / t_rows:.0f}x); {same} of {400 * len(inputs)} bit-identical")

    # CSV writing, at the size propagate-mix writes
    table = rng.normal(size=(2001, 12))
    t_loop = timeit(row_loop, table)
    t_fmt = timeit(formatter, table)
    slow = numutil._e16_block(table)[1]
    print(f"\n{'table':<24} {'method':<10} {'time':>10} {'speedup':>9} {'fallback':>9}")
    print(f"{'2001 x 12 normal':<24} {'row loop':<10} {t_loop * 1e3:>7.2f} ms {1.0:>8.1f}x")
    print(f"{'2001 x 12 normal':<24} {'formatter':<10} {t_fmt * 1e3:>7.2f} ms "
          f"{t_loop / t_fmt:>8.1f}x {slow / table.size:>8.1%}")

    # every value byte-identical to "%.16e" % v, most of them through the
    # exact fallback: a uniform exponent lands in the fast range 32% of the time
    same = total = slow = 0
    for seed in range(10):
        bits = np.random.default_rng([seed, 9]).integers(
            0, 2**64, size=(2001, 12), dtype=np.uint64)
        table = bits.view(np.float64)
        text, n_slow = numutil._e16_block(table)
        want = [E16 % v for v in table.ravel().tolist()]
        same += sum(a == b for a, b in zip(text.replace("\n", ",").split(","), want))
        total += table.size
        slow += n_slow
    print(f"random bit patterns, 10 tables of 2001 x 12: {same} of {total} values "
          f"byte-identical to %.16e ({slow / total:.1%} through the fallback)")


if __name__ == "__main__":
    main()
