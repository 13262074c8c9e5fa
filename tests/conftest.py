import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from spineq.dynamics import _check_uniform, se_residuals
from spineq.numutil import stencil_slices
from spineq.spinors import CVec3, Spinor, l_vector_arr


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_spinor(rng, scale=1.0):
    re = rng.normal(size=4) * scale
    return Spinor(complex(re[0], re[1]), complex(re[2], re[3]))


def rand_cvec3(rng, scale=1.0):
    re = rng.normal(size=6) * scale
    return CVec3(complex(re[0], re[1]), complex(re[2], re[3]), complex(re[4], re[5]))


def assert_rel(got, want, tol, scale=None):
    got = complex(got) if np.isscalar(got) else np.asarray(got)
    want = complex(want) if np.isscalar(want) else np.asarray(want)
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(np.atleast_1d(want)))))
    err = float(np.max(np.abs(np.atleast_1d(got - want))))
    assert err <= tol * scale, f"|got - want| = {err:.3e} > {tol:.1e} * {scale:.3e}"


def bloch_vector_path(traj):
    """n = L^{v,v} / (V,V) along a spinor trajectory."""
    return (l_vector_arr(traj.states, traj.states) / traj.norms()[:, None]).real


def trajectory_se_residuals(traj):
    """Residuals of a sampled trajectory's interior nodes, all but two at
    each end, against its own field samples, with the stencils taken on the
    sample grid."""
    _, h = _check_uniform(traj.times)
    return se_residuals(np.stack(stencil_slices(traj.states), axis=1),
                        traj.field_samples[2:-2], h)


SRC = str(Path(__file__).resolve().parent.parent / "src")

# `python -m spineq.cli` run by runpy, after a meta-path finder that refuses
# the package named by argv[2] (and its submodules), with argv[3:] as the
# CLI's arguments; on exit it writes the spineq modules loaded and the
# refused imports tried to the JSON file argv[1]
_REFUSING_MAIN = """\
import json, runpy, sys
report, refused, tried = sys.argv[1], sys.argv[2], []

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == refused:
            tried.append(name)
            raise ModuleNotFoundError(f"import of {name} refused", name=name)
        return None

sys.meta_path.insert(0, Refuse())
del sys.argv[1:3]
try:
    runpy.run_module("spineq.cli", run_name="__main__", alter_sys=True)
finally:
    with open(report, "w") as fh:
        json.dump({"modules": [m for m in sys.modules if m.partition(".")[0] == "spineq"],
                   "refused": tried}, fh)
"""


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    modules: set     # the spineq modules the invocation loaded
    refused: list    # the refused imports it tried, in order


def run_cli_refusing(package, argv, cwd, timeout=30):
    """Run ``python -m spineq.cli *argv`` in cwd, in a new interpreter on this
    checkout's sources, with every import of ``package`` refused."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        p = subprocess.run([sys.executable, "-c", _REFUSING_MAIN, str(report), package, *argv],
                           cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
        doc = json.loads(report.read_text())
    return CliRun(p.returncode, p.stdout, p.stderr, set(doc["modules"]), doc["refused"])
