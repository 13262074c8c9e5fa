"""The scripts under benchmarks/ load as modules and their helpers run, so
that a rename in the package cannot break them silently."""

import importlib.util
import math
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # not as __main__: main() does not run
    return module


def test_bench_series_loads_without_running_main():
    bench = _load("bench_series")
    assert callable(bench.main)
    # F(1, 1; 2; 1/2) = 2 ln 2 and Phi(g; g; 1) = e
    assert math.isclose(bench.sweep_2f1([(1, 1, 2, 0.5)]), 2 * math.log(2), rel_tol=1e-14)
    assert math.isclose(bench.sweep_1f1([(1.7, 1.7, 1.0)]), math.e, rel_tol=1e-14)
    values, terms, _ = bench.grid_2f1(1, 1, 2, np.array([0.5, 0.0]))
    assert math.isclose(abs(values[0]), 2 * math.log(2), rel_tol=1e-14) and terms[1] == 3
    values, terms, _ = bench.grid_1f1(1.7, 1.7, np.array([1.0]))
    assert math.isclose(abs(values[0]), math.e, rel_tol=1e-14)


def test_bench_series_residual_helpers_run():
    # se_residuals on the inputs residual_inputs builds, with the bits of
    # the per-point loop it replaced
    bench = _load("bench_series")
    inputs = bench.residual_inputs(3)
    assert len(inputs) == 26
    samples, F, h = inputs[0]
    assert samples.shape == (3, 5, 2) and F.shape == (3, 3) and h.shape == (3, 1)
    for rows, loop in zip(bench.residuals_rows(inputs), bench.residuals_per_point(inputs)):
        assert rows.view(np.int64).tolist() == loop.view(np.int64).tolist()
