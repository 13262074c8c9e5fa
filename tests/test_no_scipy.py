"""The package runs on numpy alone: no module of it imports scipy, and every
public function and every CLI subcommand works with scipy's import refused."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import spineq

from conftest import SRC

# every function in spineq.__all__ once, on a small input, then cli.run for
# each subcommand, in an interpreter whose imports of scipy (and of its
# submodules) are refused; it writes the functions called and the refused
# imports tried to report.json
SCRIPT = """\
import json, math, sys

tried = []

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            tried.append(name)
            raise ModuleNotFoundError(f"import of {name} refused", name=name)
        return None

sys.meta_path.insert(0, Refuse())

import numpy as np
import spineq as s
from spineq import cli
from spineq.darboux import constant_f_seed_trajectory

U, V = s.Spinor(1, 0.5j), s.Spinor(0.3, 1 - 0.2j)
const = s.ConstField((0.3, 0.1, 0.8))
expr = s.parse_field_spec("F1 = 0.6*cos(t); F3 = 0.4*sin(2*t)")
plan = s.ReductionPlan.make(np.array([0, 0, 1.0]), lambda t: 0.65 * t, lambda t: 0.65)
params = s.darboux_params_constant_f(0.5, 1.0, 0.1)
traj = s.propagate(s.ConstField((0.3, 0.0, 0.5)), np.array([1.0, 0.2 + 0.1j]), (0, 2),
                   tol=1e-12, n_nodes=201)
damped = s.propagate(s.ConstField((0.4, 0.0, 0.9j)), np.array([1.0, 0.3]), (0, 2),
                     tol=1e-12, n_nodes=201)
times = np.linspace(0, 1, 11)
q = np.stack([0.3 * np.sin(times), 0.2 * times, 0.4 * np.cos(times)], axis=1).astype(complex)

CALLS = {
    "anticonjugate": lambda: s.anticonjugate(U),
    "bloch_propagate": lambda: s.bloch_propagate(
        const, s.BlochState(np.array([1.0, 0, 0]), 0.0, 1.0), (0, 1), n_nodes=5),
    "complex_gamma": lambda: s.complex_gamma(0.5 + 1j),
    "darboux_apply": lambda: s.darboux_apply(traj, 0.3, params),
    "darboux_field": lambda: s.darboux_field(lambda t: 0.5, params, 0.7),
    "darboux_from_seed": lambda: s.darboux_from_seed(
        constant_f_seed_trajectory(0.5, 1.0, 0.1, (0, 2), 201), 1j),
    "darboux_params_constant_f": lambda: s.darboux_params_constant_f(0.5, 1.0, 0.1),
    "decompose": lambda: s.decompose(U, V),
    "eigenpairs": lambda: s.eigenpairs(s.CVec3(1, 0, 0.5)),
    "entry": lambda: s.entry(1),
    "entry_solution": lambda: s.entry_solution(1, None, 0.5),
    "eval_field": lambda: s.eval_field(s.CatalogField(5), 0.5),
    "evolution_constant_direction": lambda: s.evolution_constant_direction(
        lambda t: 2 * t, 0.4, 0.8),
    "evolution_from_q": lambda: s.evolution_from_q(times, q),
    "field_from_q": lambda: s.field_from_q(times, q),
    "frame": lambda: s.frame(U),
    "from_angles": lambda: s.from_angles(s.AngleRep(1.0, 0.2, 0.7, 0.3)),
    "gauss_2f1": lambda: s.gauss_2f1(0.5, 0.5, 1.5, 0.3),
    "general_solution": lambda: s.general_solution(damped, 0.3 + 0.2j, 1.1 - 0.4j),
    "hamiltonian_check": lambda: s.hamiltonian_check(
        lambda t: 0.0, lambda t: 1.0, 0.5, -math.pi / 2, (0, 5)),
    "inner": lambda: s.inner(U, V),
    "invert_field": lambda: s.invert_field(traj),
    "invert_field_selfadjoint": lambda: s.invert_field_selfadjoint(traj),
    "kummer_phi": lambda: s.kummer_phi(0.5, 1.5, 0.3),
    "l_vector": lambda: s.l_vector(U, V),
    "load_field_json": lambda: s.load_field_json({"kind": "const", "defs": [[0, 0], [0, 0], [1, 0]]}),
    "parabolic_d": lambda: s.parabolic_d(0.3, 0.5),
    "parse_field_spec": lambda: s.parse_field_spec("F1 = t"),
    "propagate": lambda: s.propagate(expr, [1, 0], (0, 1), n_nodes=5),
    "reduce_field": lambda: s.reduce_field(expr, plan, 0.3),
    "reparametrize_time": lambda: s.reparametrize_time(expr, lambda t: 2 * t, 0.3),
    "scale_family": lambda: s.scale_family(5, 1.0, 1.0, 1.0, 0.0),
    "sigma_apply": lambda: s.sigma_apply(np.array([0, 0, 1.0]), U),
    "sigma_map": lambda: s.sigma_map(U, s.SigmaMap.FLIP3),
    "split_kg": lambda: s.split_kg(s.CVec3(1 + 2j, 0, 3)),
    "stationary_solutions": lambda: s.stationary_solutions(s.CVec3(0, 0, 1)),
    "to_angles": lambda: s.to_angles(U),
    "to_schrodinger_potentials": lambda: s.to_schrodinger_potentials(expr, 0.3),
    "transform_solution": lambda: s.transform_solution(U, plan, 0.3),
    "vector_from_eigenvectors": lambda: s.vector_from_eigenvectors(U, V),
    "verify_entry": lambda: s.verify_entry(1, n_points=5),
}
results = {name: call() for name, call in CALLS.items()}
assert results["hamiltonian_check"].truncated  # its event fires: q reaches 1
assert results["verify_entry"].max_residual < 1e-6

with open("expr.json", "w") as fh:
    json.dump({"kind": "expr", "defs": "F1 = 0.6*cos(t); F3 = 0.4*sin(2*t)"}, fh)
W = ["--window", "0", "1", "--nodes", "9"]
ARGV = {
    "propagate": ["--field", "expr.json", "--v0", "1,0", *W, "--out", "traj.csv"],
    "verify": ["--entry", "1", "--points", "5", "--out", "verify.txt"],
    "invert": ["--field", "expr.json", "--v0", "1,0", *W, "--out", "field.csv"],
    "darboux": ["--params", "f=0.5;R=1", *W, "--out", "darboux.csv"],
    "catalog": ["show", "1"],
    "bloch": ["--field", "expr.json", "--n0", "1,0,0", *W, "--out", "bloch.csv"],
    "reduce": ["--field", "expr.json", "--l", "0,0,1", "--alpha", "t", *W, "--out", "reduced.csv"],
}
codes = {cmd: cli.run([cmd, *argv]) for cmd, argv in ARGV.items()}
with open("report.json", "w") as fh:
    json.dump({"called": sorted(CALLS), "codes": codes, "tried": tried,
               "loaded": [m for m in sys.modules if m.partition(".")[0] == "scipy"]}, fh)
"""


def test_public_api_and_cli_run_with_scipy_refused(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    p = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stderr == ""
    report = json.loads((tmp_path / "report.json").read_text())
    functions = {name for name in spineq.__all__ if inspect.isfunction(getattr(spineq, name))}
    assert set(report["called"]) == functions
    assert report["codes"] == dict.fromkeys(
        ["propagate", "verify", "invert", "darboux", "catalog", "bloch", "reduce"], 0)
    assert report["tried"] == [] and report["loaded"] == []


def test_no_module_imports_scipy():
    imports = []
    for path in sorted(Path(SRC, "spineq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [(path.name, name) for name in names if name.partition(".")[0] == "scipy"]
    assert imports == []
