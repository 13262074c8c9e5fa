"""CLI invocations that compute nothing: byte-for-byte output, and no numpy.

`catalog list`, `catalog show` and every rejected-input class are run as
``python -m spineq.cli`` with numpy refused (conftest.run_cli_refusing).
Each must write exactly the stdout, stderr and exit code recorded in
cli_golden.json, which were captured before these paths were made
numpy-free, load only the spineq modules its subcommand declares below, and
write no stderr line but its one ``ERROR 2:`` report.
"""

import json
from pathlib import Path

import pytest

from conftest import run_cli_refusing

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())

# field documents the cases read, written into the working directory
FILES = {
    "expr.json": {"kind": "expr", "defs": "F1 = a*cos(t); F3 = 0.4*sin(2*t)",
                  "params": {"a": [0.6, 0]}},
    "catalog.json": {"kind": "catalog", "defs": 5, "params": {"a": [1.2, 0]}},
    "bad_entry.json": {"kind": "catalog", "defs": 99},
    "bad_dsl.json": {"kind": "expr", "defs": "F1 = sin(t", "params": {}},
    "unknown_param.json": {"kind": "expr", "defs": "F1 = k*t", "params": {}},
    "malformed.json": '{"kind": "expr", "defs": "F1 = t"',
    "no_defs.json": {"kind": "expr", "params": {}},
}

_PROP = ["propagate", "--field", "expr.json", "--v0", "1,0"]

# name -> argv; the catalog output, then one case per rejected-input class
CASES = {
    "catalog-list": ["catalog", "list"],
    **{f"catalog-show-{i}": ["catalog", "show", str(i)] for i in range(1, 27)},
    "catalog-show-99": ["catalog", "show", "99"],
    "catalog-show-no-id": ["catalog", "show"],
    "missing-file": ["propagate", "--field", "missing.json", "--v0", "1,0",
                     "--window", "0", "1"],
    "json-malformed": ["propagate", "--field", "malformed.json", "--v0", "1,0",
                       "--window", "0", "1"],
    "json-no-defs": ["propagate", "--field", "no_defs.json", "--v0", "1,0",
                     "--window", "0", "1"],
    "bad-dsl": ["propagate", "--field", "bad_dsl.json", "--v0", "1,0", "--window", "0", "1"],
    "unknown-param": ["propagate", "--field", "unknown_param.json", "--v0", "1,0",
                      "--window", "0", "1"],
    "bad-entry": ["propagate", "--field", "bad_entry.json", "--v0", "1,0",
                  "--window", "0", "1"],
    "no-window": _PROP,
    "nodes-0": [*_PROP, "--window", "0", "1", "--nodes", "0"],
    "window-inf": [*_PROP, "--window", "0.2", "inf"],
    "window-reversed": [*_PROP, "--window", "1", "0"],
    "bad-tol": [*_PROP, "--window", "0", "1", "--tol", "1e-15"],
    "bad-v0": ["propagate", "--field", "expr.json", "--v0", "1,2,3", "--window", "0", "1"],
    "bad-v0-catalog": ["propagate", "--field", "catalog.json", "--v0", "x,0",
                       "--window", "0.2", "1"],
    "invert-bad-v0": ["invert", "--field", "catalog.json", "--v0", "1,0,0",
                      "--window", "0.2", "1"],
    "invert-bad-tol": ["invert", "--field", "expr.json", "--v0", "1,0", "--window", "0", "1",
                       "--tol", "1e-2"],
    "bloch-bad-n0": ["bloch", "--field", "catalog.json", "--n0", "1,0", "--window", "0.2", "1"],
    "bloch-bad-tol": ["bloch", "--field", "expr.json", "--n0", "1,0,0", "--window", "0", "1",
                      "--tol", "1e-15"],
    "reduce-bad-l": ["reduce", "--field", "expr.json", "--l", "1,0", "--alpha", "t",
                     "--window", "0", "1"],
    "reduce-bad-alpha": ["reduce", "--field", "expr.json", "--l", "0,0,1", "--alpha", "t +",
                         "--window", "0", "1"],
    "reduce-alpha-param": ["reduce", "--field", "expr.json", "--l", "0,0,1", "--alpha", "t",
                           "--alpha-dot", "k", "--window", "0", "1"],
    "darboux-no-f": ["darboux", "--params", "R=1", "--window", "0", "1"],
    "darboux-window-inf": ["darboux", "--params", "f=0.5;R=1", "--window", "0", "inf"],
    "verify-w0": ["verify", "--entry", "5", "--params", "w=0"],
    "verify-a1e200": ["verify", "--entry", "1", "--params", "a=1e200"],
    "verify-a-inf": ["verify", "--entry", "3", "--params", "a=inf"],
    "verify-entry-99": ["verify", "--entry", "99"],
    "verify-bad-params": ["verify", "--entry", "1", "--params", "a"],
    "verify-window-inf": ["verify", "--entry", "1", "--window", "0", "inf"],
    "verify-points-0": ["verify", "--entry", "1", "--points", "0"],
    "verify-no-entry": ["verify"],
}

# the spineq modules each subcommand may load on these paths
_BASE = {"spineq", "spineq.cli", "spineq.errors", "spineq._numbers"}
MODULES = {
    "catalog": _BASE | {"spineq.catalog"},
    "verify": _BASE | {"spineq.catalog"},
    "darboux": _BASE,
    **dict.fromkeys(("propagate", "invert", "bloch", "reduce"),
                    _BASE | {"spineq.fields", "spineq.expr", "spineq.catalog"}),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, doc in FILES.items():
        (path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)
    for name, argv in CASES.items():
        assert GOLDEN[name]["argv"] == argv, name


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_golden_without_numpy(workdir, name):
    argv = CASES[name]
    run = run_cli_refusing("numpy", argv, workdir)
    want = GOLDEN[name]
    assert run.refused == [], f"{name} tried to import {run.refused}"
    assert (run.returncode, run.stdout, run.stderr) == (
        want["exit"], want["stdout"], want["stderr"])
    assert run.modules <= MODULES[argv[0]], run.modules - MODULES[argv[0]]
    if run.returncode:
        assert run.returncode == 2 and run.stdout == ""
        assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("ERROR 2: ")
    else:
        assert run.stderr == ""


def test_refused_import_is_reported(workdir):
    # the finder is what the tests above rest on: a subcommand that computes
    # must hit it, fail, and have the attempt reported
    run = run_cli_refusing("numpy", ["verify", "--entry", "1", "--points", "5"], workdir)
    assert run.returncode == 1 and "import of numpy refused" in run.stderr
    assert run.refused[0] == "numpy"
