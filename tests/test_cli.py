import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spineq
from spineq import catalog
from spineq.cli import _fmt, _verify_one, run
from spineq.dynamics import CSV_HEADER

SRC = str(Path(spineq.__file__).resolve().parent.parent)
# a rejected input must be reported quickly: interpreter start and import
# take well under a second
FAST_TIMEOUT_S = 5.0


def _python(args, cwd, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def const_field(tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"kind": "const",
                                "defs": [[0, 0], [0, 0], [1, 0]]}))
    return str(path)


@pytest.fixture
def expr_field(tmp_path):
    doc = {"kind": "expr",
           "defs": "F1 = a*cos(t); F3 = 0.4*sin(2*t)",
           "params": {"a": [0.6, 0]}}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestPropagate:
    def test_zero_field_constant_columns(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"kind": "const",
                                    "defs": [[0, 0], [0, 0], [0, 0]]}))
        out = tmp_path / "traj.csv"
        rc = run(["propagate", "--field", str(path), "--v0", "1,0,0,0",
                  "--window", "0", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        cols = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.max(np.abs(cols[:, 1] - 1.0)) <= 1e-9   # re v1 constant
        assert np.max(np.abs(cols[:, 3])) <= 1e-9         # re v2 stays zero

    def test_deterministic_output(self, const_field, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = run(["propagate", "--field", const_field, "--v0", "1,0,0.5,0",
                      "--window", "0", "2", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_window(self, const_field):
        assert run(["propagate", "--field", const_field, "--v0", "1,0"]) == 2

    def test_bad_v0(self, const_field):
        rc = run(["propagate", "--field", const_field, "--v0", "1,2,3",
                  "--window", "0", "1"])
        assert rc == 2

    def test_bad_tol(self, const_field):
        rc = run(["propagate", "--field", const_field, "--v0", "1,0",
                  "--window", "0", "1", "--tol", "1e-15"])
        assert rc == 2

    def test_missing_file(self):
        rc = run(["propagate", "--field", "/nonexistent.json", "--v0", "1,0",
                  "--window", "0", "1"])
        assert rc == 2


class TestVerify:
    def test_single_entry(self, capsys):
        rc = run(["verify", "--entry", "16", "--window", "0.2", "2.0",
                  "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entry"] == 16
        assert doc["passed"] is True
        assert float(doc["max_residual"]) <= 1e-6

    def test_invalid_entry(self, capsys):
        assert run(["verify", "--entry", "99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR 2:")

    def test_all_table(self, capsys):
        rc = run(["verify", "--all"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 27  # header + 26 rows
        assert all(" pass " in ln or ln.endswith("pass") or "pass" in ln
                   for ln in lines[1:])

    def test_all_json(self, capsys):
        rc = run(["verify", "--all", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 26
        assert all(r["passed"] for r in doc["reports"])

    def test_needs_entry_or_all(self, capsys):
        assert run(["verify"]) == 2

    def test_all_table_is_serial_join(self, capsys):
        assert run(["verify", "--all"]) == 0
        rows = [_verify_one(i, {}, None, 50, 1e-6)
                for i in range(1, catalog.N_ENTRIES + 1)]
        want = f"{'entry':>5} {'max residual':>16} {'status':>8}  label\n" + "".join(
            f"{r['entry']:>5} {_fmt(r['max_residual']):>16} "
            f"{'flagged' if r['flagged'] else 'pass' if r['passed'] else 'FAIL':>8}"
            f"  {r['label']}\n" for r in rows)
        assert capsys.readouterr().out == want


class TestInvert:
    def test_selfadjoint_round_trip(self, expr_field, capsys):
        rc = run(["invert", "--field", expr_field, "--v0", "1,0,0.3,0.2",
                  "--window", "0", "1.5", "--tol", "1e-12", "--format", "json",
                  "--nodes", "1201"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert float(doc["max_deviation_from_input_field"]) <= 1e-5

    def test_general_round_trip_csv(self, expr_field, tmp_path):
        out = tmp_path / "field.csv"
        rc = run(["invert", "--field", expr_field, "--v0", "1,0,0.3,0.2",
                  "--window", "0", "1.5", "--tol", "1e-12", "--out", str(out),
                  "--nodes", "1201"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER  # recovered field shares the schema
        assert len(lines) == 1202


class TestDarboux:
    def test_emits_trajectory_and_descriptor(self, tmp_path):
        out = tmp_path / "pair.csv"
        rc = run(["darboux", "--params", "f=0.5;R=1;phi0=0.1;eps=0.3",
                  "--window", "0", "2", "--out", str(out), "--nodes", "801"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 802
        descr = json.loads((tmp_path / "pair.csv.json").read_text())
        assert descr["f"] == [0.5, 0.0]
        assert descr["R"] == [1.0, 0.0]

    def test_missing_params(self, capsys):
        assert run(["darboux", "--params", "f=0.5", "--window", "0", "1"]) == 2


class TestCatalog:
    def test_list(self, capsys):
        assert run(["catalog", "list"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["entries"]) == 26

    def test_show(self, capsys):
        assert run(["catalog", "show", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["id"] == 5
        assert "field_dsl" in doc and "poles_in_window" in doc

    def test_show_requires_id(self, capsys):
        assert run(["catalog", "show"]) == 2


class TestBlochReduce:
    def test_bloch_header(self, const_field, tmp_path):
        out = tmp_path / "bloch.csv"
        rc = run(["bloch", "--field", const_field, "--n0", "1,0,0",
                  "--window", "0", "2", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "t,n1,n2,n3,alpha,N"

    def test_bloch_bad_n0(self, const_field):
        assert run(["bloch", "--field", const_field, "--n0", "1,0",
                    "--window", "0", "1"]) == 2

    def test_reduce_rabi(self, tmp_path):
        doc = {"kind": "expr",
               "defs": "F1 = 0.7*cos(1.3*t); F2 = 0.7*sin(1.3*t); F3 = 0.4",
               "params": {}}
        path = tmp_path / "rabi.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "reduced.csv"
        rc = run(["reduce", "--field", str(path), "--l", "0,0,1",
                  "--alpha", "0.65*t", "--alpha-dot", "0.65",
                  "--window", "0", "3", "--out", str(out), "--nodes", "31"])
        assert rc == 0
        lines = out.read_text().splitlines()
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        # reduced field is constant (0.7, 0, 0.4 - 0.65)
        assert np.max(np.abs(rows[:, 1] - 0.7)) <= 1e-9
        assert np.max(np.abs(rows[:, 5] - (0.4 - 0.65))) <= 1e-9


class TestColdStart:
    def test_scipy_integrate_loaded_only_by_a_solve(self, const_field, tmp_path):
        code = (
            "import sys, spineq, spineq.cli\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            f"rc = spineq.cli.run(['propagate', '--field', {const_field!r}, '--v0', '1,0',"
            " '--window', '0', '1', '--nodes', '5', '--out', 'traj.csv'])\n"
            "assert rc == 0\n"
            "assert 'scipy.integrate' in sys.modules\n"
        )
        p = _python(["-c", code], tmp_path, timeout=30)
        assert p.returncode == 0, p.stderr


class TestBoundaryDefects:
    """Inputs that once escaped as tracebacks or hung: each must exit 2 fast."""

    @pytest.fixture
    def files(self, tmp_path, const_field):  # const_field is tmp_path/const.json
        docs = {"malformed": '{"kind": "expr", "defs": "F1 = t"',
                "no_defs": '{"kind": "expr", "params": {}}',
                "not_object": '[1, 2]'}
        for name, text in docs.items():
            (tmp_path / f"{name}.json").write_text(text)
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["propagate", "--field", "const.json", "--v0", "1,0", "--window", "0.2", "inf"],
        ["propagate", "--field", "const.json", "--v0", "1,0", "--window", "0", "1",
         "--nodes", "0"],
        ["invert", "--field", "const.json", "--v0", "1,0", "--window", "0", "1",
         "--nodes", "3"],
        ["darboux", "--params", "f=0.5;R=1", "--window", "0", "1", "--nodes", "4"],
        ["propagate", "--field", "malformed.json", "--v0", "1,0", "--window", "0", "1"],
        ["propagate", "--field", "no_defs.json", "--v0", "1,0", "--window", "0", "1"],
        ["propagate", "--field", "not_object.json", "--v0", "1,0", "--window", "0", "1"],
        ["verify", "--entry", "5", "--params", "w=0"],
        ["verify", "--entry", "5", "--points", "0"],
    ], ids=["window-inf", "nodes-0", "invert-nodes-3", "darboux-nodes-4",
            "json-malformed", "json-no-defs", "json-not-object", "verify-w0",
            "verify-points-0"])
    def test_exits_2(self, files, argv):
        p = _python(["-m", "spineq.cli", *argv], files, timeout=FAST_TIMEOUT_S)
        assert p.returncode == 2, p.stderr
        assert p.stderr.startswith("ERROR 2:")
