import contextlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spineq
from spineq import catalog, cli, dynamics
from spineq.cli import MAX_NODES, _fmt, _verify_one, run
from spineq.dynamics import CSV_HEADER

from conftest import run_cli_refusing

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

    @pytest.mark.parametrize("eid, window", [(1, ("0.3", "1.3")), (5, ("0.2", "1.2"))])
    def test_catalog_and_expr_documents_give_identical_csv(self, tmp_path, capsys,
                                                           eid, window):
        e = catalog.entry(eid)
        pairs = {k: [complex(v).real, complex(v).imag]
                 for k, v in e.merged({"a": 1.1 + 0.1j}).items()}
        docs = {"catalog": {"kind": "catalog", "defs": eid, "params": {"a": [1.1, 0.1]}},
                "expr": {"kind": "expr", "defs": e.field_dsl, "params": pairs}}
        out = {}
        for kind, doc in docs.items():
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc))
            rc = run(["propagate", "--field", str(path), "--v0", "1,0,0.3,0.2",
                      "--window", *window, "--nodes", "21"])
            assert rc == 0
            out[kind] = capsys.readouterr().out
        assert out["catalog"].startswith(CSV_HEADER + "\n")
        assert out["catalog"] == out["expr"]

    def test_missing_file(self):
        rc = run(["propagate", "--field", "/nonexistent.json", "--v0", "1,0",
                  "--window", "0", "1"])
        assert rc == 2

    def test_field_value_past_double_range_is_one_error_line(self, tmp_path, capsys):
        # each part is finite, but the modulus, which abs cannot take, is not
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "expr", "defs": "F1 = 1.5e308 + 1.5e308*i"}))
        assert run(["propagate", "--field", str(path), "--v0", "1,0,0,0",
                    "--window", "0", "1", "--nodes", "3"]) == 3
        assert capsys.readouterr().err == "ERROR 3: field component singular at t = 0.0\n"


# a verify parameter: 0 or +-1e-3 ... +-1e6, on a log scale
_param_value = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                                 st.sampled_from([1.0, -1.0]), st.floats(-3, 6)))


@st.composite
def _verify_argv(draw):
    e = catalog.entry(draw(st.integers(1, catalog.N_ENTRIES)))
    names = draw(st.lists(st.sampled_from(e.param_names), min_size=1, unique=True))
    params = ";".join(f"{k}={draw(_param_value)!r}" for k in names)
    return ["verify", "--entry", str(e.id), "--params", params]


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

    def test_singular_window_reports_one_line(self, tmp_path):
        p = _python(["-m", "spineq.cli", "verify", "--entry", "1", "--window", "0", "1"],
                    tmp_path, timeout=30)
        assert p.returncode == 3
        assert len(p.stderr.splitlines()) == 1
        assert p.stderr.startswith("ERROR 3:")

    @pytest.mark.parametrize("entry, params", [
        (16, "a=nan"), (16, "a=inf"), (16, "a=1e200"), (16, "a=1e308"),
        (7, "c=nan"), (9, "c=nan"),
    ])
    def test_non_finite_parameter(self, capsys, entry, params):
        rc = run(["verify", "--entry", str(entry), "--params", params])
        assert rc in (2, 3)
        assert capsys.readouterr().err.startswith(f"ERROR {rc}:")

    @pytest.mark.parametrize("params", ["a=1e200", "a=1e308"])
    def test_overflowing_derived_parameter_is_named(self, capsys, params):
        # finite a, but the order -i a^2/(2b) of D_p is not
        assert run(["verify", "--entry", "16", "--params", params]) == 2
        assert capsys.readouterr().err == \
            "ERROR 2: entry 16 parameter constraints violated: ['a^2/b finite']\n"

    @pytest.mark.parametrize("entry", range(1, 27))
    def test_overflowing_parameter_is_an_input_error(self, capsys, entry):
        for params in ("a=1e200", "a=1e308"):
            assert run(["verify", "--entry", str(entry), "--params", params]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"ERROR 2: entry {entry} parameter") and "'a" in err

    @pytest.mark.parametrize("entry, other", [(1, "b"), (2, "b"), (3, "b"), (6, "c"),
                                              (8, "c"), (13, "c"), (15, "b"), (17, "c")])
    def test_overflowing_sum_of_squares_is_not_zero(self, capsys, entry, other):
        # the constraint a^2 + other^2 != 0 holds when the sum is inf, or NaN
        # from inf - inf; the squares check then names the parameters
        for params, names in (("a=1e200", ["a"]),
                              (f"a=1e200;{other}=0,1e200", ["a", other])):
            assert run(["verify", "--entry", str(entry), "--params", params]) == 2
            assert capsys.readouterr().err == (f"ERROR 2: entry {entry} parameters too "
                                               f"large, squares not finite: {names}\n")

    @pytest.mark.parametrize("entry, params, constraint", [
        (2, "a=0;b=0", "a^2 + b^2 != 0"), (2, "a=1;b=0,1", "a^2 + b^2 != 0"),
        (17, "a=0;c=0", "a^2 + c^2 != 0"),
    ])
    def test_zero_sum_of_squares_is_a_violated_constraint(self, capsys, entry, params,
                                                          constraint):
        assert run(["verify", "--entry", str(entry), "--params", params]) == 2
        assert capsys.readouterr().err == \
            f"ERROR 2: entry {entry} parameter constraints violated: ['{constraint}']\n"

    def test_underflowed_gamma_is_not_a_singularity(self, capsys):
        # the order -i a^2/(2b) = -5000i of D_p puts its gamma weights past
        # the double range; the solution is not singular at the first node
        assert run(["verify", "--entry", "16", "--params", "a=100"]) == 3
        assert capsys.readouterr().err == \
            "ERROR 3: gamma at z = (0.5+2500j) underflows in the Lanczos formula\n"

    def test_overflowing_orders_exit_3(self, capsys):
        # the Kummer terms of entry 1 at a = 1e150 are inf from the second
        # on; the series stops there (test_specfun counts the terms)
        assert run(["verify", "--entry", "1", "--params", "a=1e150"]) == 3
        assert capsys.readouterr().err == ("ERROR 3: Kummer series has a term that is not "
                                           "finite at z=3.99920004e+148j\n")

    @given(_verify_argv())
    @example(["verify", "--entry", "16", "--params", "a=30"])
    @example(["verify", "--entry", "12", "--params", "a=1000;b=0.001;c=2;w=2"])
    @settings(max_examples=100, deadline=None)
    def test_random_parameters_keep_the_contract(self, argv):
        # states past 1e154 once overflowed the residual's squared norms: a
        # numpy warning on stderr and a "nan" residual
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(argv)
        assert rc in (0, 2, 3)
        assert [str(w.message) for w in caught] == []
        assert all(line.startswith(f"ERROR {rc}:") for line in err.getvalue().splitlines())
        if not err.getvalue():
            assert json.loads(out.getvalue())["max_residual"] != "nan"

    def test_state_past_the_difference_range_next_to_a_pole(self):
        # entry 24 reaches |u| ~ 3e306 at a node before its pole at 1.0449:
        # the residual's central difference overflowed there, a numpy warning
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["verify", "--entry", "24", "--params",
                      "a=0.0;b=316.22776601683796;c=316.22776601683796"])
        assert rc == 3 and [str(w.message) for w in caught] == []
        assert err.getvalue().startswith("ERROR 3: entry 24 solution singular at t = 1.0448")

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

    # parameters past the double range once gave rows of nan and exit 0, or
    # an OverflowError traceback and exit 1; cosh overflows past t = 410
    NOT_FINITE = {
        "f-inf": ("f=inf;R=1", "1", 5, 2, "ERROR 2: f = (inf+0j) is not finite"),
        "R-nan": ("f=0.5;R=nan", "1", 5, 2, "ERROR 2: R = (nan+0j) is not finite"),
        "phi0-inf": ("f=0.5;R=1;phi0=inf", "1", 5, 2, "ERROR 2: phi0 = (inf+0j) is not finite"),
        "eps-1e308": ("f=0.5;R=1;eps=1e308", "1", 5, 2, "ERROR 2: w = (inf+0j) is not finite"),
        "R-1e200": ("f=0.5;R=1e200", "1", 5, 2, "ERROR 2: w0 = (inf+0j) is not finite"),
        "t-450": ("f=0.5;R=1", "450", 9001, 3,
                  "ERROR 3: the constant-F3 pair leaves the double range at t = 409.90000000000003"),
    }

    @pytest.mark.parametrize("params, t1, nodes, rc, err", NOT_FINITE.values(), ids=NOT_FINITE)
    def test_past_the_double_range_is_one_error_line(self, capsys, params, t1, nodes, rc, err):
        argv = ["darboux", "--params", params, "--window", "0", t1, "--nodes", str(nodes)]
        assert run(argv) == rc
        assert capsys.readouterr() == ("", err + "\n")


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

    def test_bloch_pole_on_a_node_fails_fast(self, tmp_path):
        # the field is sampled at the output nodes before the solve, so the
        # solver never crawls up to the pole at t = 0.5, which expr.poles does
        # not declare: the divisor is not affine
        (tmp_path / "pole.json").write_text(
            json.dumps({"kind": "expr", "defs": "F3 = 1/(t*t - 0.25)"}))
        p = _python(["-m", "spineq.cli", "bloch", "--field", "pole.json", "--n0", "1,0,0",
                     "--window", "0", "1"], tmp_path, timeout=FAST_TIMEOUT_S)
        assert p.returncode == 3
        assert p.stderr == "ERROR 3: '/' overflow/pole at t = 0.5\n"

    def test_bloch_declared_pole_in_window(self, tmp_path, capsys):
        path = tmp_path / "entry1.json"
        path.write_text(json.dumps({"kind": "catalog", "defs": 1}))
        assert run(["bloch", "--field", str(path), "--n0", "1,0,0",
                    "--window", "-0.5", "0.5"]) == 2
        assert capsys.readouterr().err == (
            "ERROR 2: window [-0.5, 0.5] contains declared field poles at [0.0]\n")

    def test_reduce_reports_the_first_pole(self, tmp_path, capsys):
        # the field and alpha are evaluated node by node, so an alpha pole
        # at an earlier node than the field's is the error reported
        path = tmp_path / "pole.json"
        path.write_text(json.dumps({"kind": "expr", "defs": "F3 = 1/(t - 0.5)"}))
        rc = run(["reduce", "--field", str(path), "--l", "0,0,1",
                  "--alpha", "1/(t - 0.25)", "--window", "0", "1", "--nodes", "5"])
        assert rc == 3
        assert capsys.readouterr().err == "ERROR 3: '/' overflow/pole at t = 0.25\n"

    @pytest.mark.parametrize("F, alpha, shown", [((1, 0, 1), "400*i", "400j"),
                                                 ((10, 0, 1), "355*i", "355j")])
    def test_reduced_field_past_double_range_is_one_error_line(self, tmp_path, F, alpha,
                                                               shown):
        # cos(2 alpha) overflows at 800i; at 710i it is finite, but times
        # F1 = 10 the field is not: neither is a traceback, a warning or inf
        (tmp_path / "f.json").write_text(
            json.dumps({"kind": "const", "defs": [[x, 0] for x in F]}))
        p = _python(["-m", "spineq.cli", "reduce", "--field", "f.json", "--l", "0,0,1",
                     "--alpha", alpha, "--window", "0", "1", "--nodes", "3"],
                    tmp_path, timeout=60)
        assert (p.returncode, p.stdout) == (2, "")
        assert p.stderr == f"ERROR 2: reduced field at t = 0.0 (alpha = {shown}) is not finite\n"


def _per_value_rows(columns):
    """The per-value row loop the CLI wrote its floats with before the
    vectorised formatter."""
    for row in zip(*columns):
        yield ",".join(_fmt(x) for x in row) + "\n"


class TestFloatText:
    """Every CSV and JSON float is the text "%.16e" % v gives, value by
    value, including values the formatter sends to its exact fallback."""

    @pytest.mark.parametrize("argv", [
        ["bloch", "--field", "{expr}", "--n0", "1,0,0", "--window", "0", "5",
         "--nodes", "1500"],
        ["bloch", "--field", "{grow}", "--n0", "0,0,1", "--window", "0", "2000",
         "--nodes", "201", "--tol", "1e-6"],
        ["reduce", "--field", "{expr}", "--l", "1,0,0", "--alpha", "sin(t)",
         "--window", "0", "5", "--nodes", "1500"],
        ["reduce", "--field", "{expr}", "--l", "0,0,1", "--alpha", "2*t",
         "--window", "0", "1e-200", "--nodes", "3"],
        ["propagate", "--field", "{expr}", "--v0", "1,0,0,0", "--window", "0", "5",
         "--nodes", "1500", "--format", "json"],
        ["propagate", "--field", "{grow}", "--v0", "1,0", "--window", "0", "3000",
         "--nodes", "201", "--tol", "1e-6", "--format", "json"],
        ["propagate", "--field", "{grow}", "--v0", "1,0", "--window", "0", "3000",
         "--nodes", "201", "--tol", "1e-6"],
        ["invert", "--field", "{expr}", "--v0", "1,0,0,0", "--window", "0", "5",
         "--nodes", "201"],
        ["darboux", "--params", "f=0.5;R=1;phi0=0.1;eps=0.3", "--window", "0", "2",
         "--nodes", "201"],
    ], ids=["bloch", "bloch-large", "reduce", "reduce-tiny", "propagate-json",
            "propagate-json-large", "propagate-csv-large", "invert", "darboux"])
    def test_same_text_as_per_value_formatting(self, tmp_path, expr_field, capsys,
                                               monkeypatch, argv):
        grow = tmp_path / "grow.json"
        grow.write_text(json.dumps({"kind": "const", "defs": [[0.3, 0], [0, 0], [1, 0.1]]}))
        argv = [arg.format(expr=expr_field, grow=str(grow)) for arg in argv]
        assert run(argv) == 0
        got = capsys.readouterr().out
        monkeypatch.setattr(cli, "csv_rows", _per_value_rows)
        monkeypatch.setattr(dynamics, "csv_rows", _per_value_rows)
        assert run(argv) == 0
        want = capsys.readouterr().out
        assert got.splitlines() == want.splitlines() and got == want

    def test_failed_solve_reports_one_line_and_where_it_stopped(self, tmp_path):
        # |V| grows like e^{0.1 t} and overflows near t = 7.4e3; the output
        # nodes are 1.25e297 apart, so the last node reached is t = 0
        (tmp_path / "grow.json").write_text(
            json.dumps({"kind": "const", "defs": [[0.3, 0], [0, 0], [1, 0.1]]}))
        p = _python(["-m", "spineq.cli", "propagate", "--field", "grow.json",
                     "--v0", "1,0", "--window", "0", "1e300"], tmp_path, timeout=60)
        assert p.returncode == 3
        lines = p.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR 3: propagation failed near t = ")
        assert float(lines[0].split("t = ")[1].split(":")[0]) > 1000

    def test_norm_past_double_range_is_inf_without_warning(self, tmp_path):
        # |V| reaches ~1e208 in the window, so (V,V) is past the double range:
        # the norm column holds inf, and stderr stays empty
        (tmp_path / "grow.json").write_text(
            json.dumps({"kind": "const", "defs": [[0.3, 0], [0, 0], [1, 0.1]]}))
        p = _python(["-m", "spineq.cli", "propagate", "--field", "grow.json",
                     "--v0", "1,0", "--window", "0", "5000", "--nodes", "201",
                     "--tol", "1e-6"], tmp_path, timeout=60)
        assert p.returncode == 0 and p.stderr == ""
        assert sum(line.endswith(",inf") for line in p.stdout.splitlines()) == 52


class TestOptions:
    """Each option is declared only where its subcommand reads it: an
    option that would be ignored is an argparse error."""

    @pytest.mark.parametrize("argv", [
        ["darboux", "--params", "f=0.5;R=1", "--window", "0", "1", "--tol", "1e-8"],
        ["darboux", "--params", "f=0.5;R=1", "--window", "0", "1", "--format", "csv"],
        ["reduce", "--field", "{const}", "--l", "0,0,1", "--alpha", "t",
         "--window", "0", "1", "--tol", "1e-8"],
        ["reduce", "--field", "{const}", "--l", "0,0,1", "--alpha", "t",
         "--window", "0", "1", "--format", "json"],
        ["bloch", "--field", "{const}", "--n0", "1,0,0", "--window", "0", "1",
         "--format", "csv"],
        ["verify", "--entry", "1", "--format", "csv"],
    ], ids=["darboux-tol", "darboux-format", "reduce-tol", "reduce-format",
            "bloch-format", "verify-format-csv"])
    def test_option_not_read_exits_2(self, const_field, capsys, argv):
        assert run([arg.format(const=const_field) for arg in argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err


class TestColdStart:
    def test_no_solve_imports_scipy_integrate(self, const_field, tmp_path):
        # the solver is the package's own DOP853; importing scipy.integrate
        # would cost a solving command more than the solve itself
        code = (
            "import sys, spineq, spineq.cli\n"
            "common = ['--field', sys.argv[1], '--window', '0', '1', '--nodes', '5']\n"
            "for argv in (['propagate', '--v0', '1,0', '--out', 'traj.csv'],\n"
            "             ['invert', '--v0', '1,0,0.3,0.2', '--out', 'field.csv'],\n"
            "             ['bloch', '--n0', '1,0,0', '--out', 'bloch.csv']):\n"
            "    assert spineq.cli.run(argv + common) == 0, argv\n"
            "    assert 'scipy.integrate' not in sys.modules, argv\n"
        )
        p = _python(["-c", code, const_field], tmp_path, timeout=30)
        assert p.returncode == 0, p.stderr

    # cli.main() on the arguments after the code, in a new interpreter; on
    # exit it writes the OPENBLAS_NUM_THREADS it leaves and the numpy and
    # spineq modules imported to report.json
    MAIN = ("import json, os, sys\n"
            "from spineq import cli\n"
            "try:\n"
            "    cli.main()\n"
            "finally:\n"
            "    with open('report.json', 'w') as fh:\n"
            "        json.dump({'blas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
            "                   'modules': [m for m in sys.modules\n"
            "                               if m.split('.')[0] in ('numpy', 'spineq')]}, fh)\n")

    def _main(self, argv, cwd):
        p = _python(["-c", self.MAIN, *argv], cwd, timeout=30)
        return p, json.loads((cwd / "report.json").read_text())

    def test_import_spineq_loads_no_numpy(self, tmp_path):
        code = "import sys, spineq\nassert 'numpy' not in sys.modules, sorted(sys.modules)\n"
        p = _python(["-c", code], tmp_path, timeout=30)
        assert p.returncode == 0, p.stderr

    @pytest.mark.parametrize("argv", [
        ["propagate", "--field", "const.json", "--v0", "1,0", "--window", "0", "1",
         "--nodes", "0"],
        ["propagate", "--field", "const.json", "--v0", "1,0"],
        ["invert", "--field", "const.json", "--v0", "1,0", "--window", "0", "1",
         "--nodes", "3"],
    ], ids=["nodes-0", "no-window", "invert-nodes-3"])
    def test_rejected_arguments_exit_before_numpy(self, tmp_path, const_field, argv):
        p, report = self._main(argv, tmp_path)
        assert p.returncode == 2 and p.stdout == ""
        assert p.stderr.startswith("ERROR 2:") and len(p.stderr.splitlines()) == 1
        assert "numpy" not in report["modules"], report["modules"]

    def test_expr_propagate_loads_no_catalog(self, tmp_path, expr_field):
        p, report = self._main(["propagate", "--field", expr_field, "--v0", "1,0",
                                "--window", "0", "1", "--nodes", "5"], tmp_path)
        assert p.returncode == 0, p.stderr
        loaded = set(report["modules"])
        assert "spineq.dynamics" in loaded
        assert not loaded & {"spineq.catalog", "spineq.specfun"}

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
    def test_blas_threads_default_to_one(self, tmp_path, monkeypatch, preset, want):
        # numpy's OpenBLAS reads the variable when it loads; the CLI's 2x2 and
        # n x 2 products leave its worker threads idle
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        p, report = self._main(["verify", "--entry", "1", "--points", "5"], tmp_path)
        assert p.returncode == 0, p.stderr
        assert report["blas"] == want
        assert "numpy" in report["modules"]

    def test_run_leaves_blas_threads_alone(self, monkeypatch, capsys):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run(["catalog", "list"]) == 0
        assert "OPENBLAS_NUM_THREADS" not in os.environ


class TestBoundaryDefects:
    """Inputs that once escaped as tracebacks or hung: each must exit 2 fast."""

    # field documents whose params or defs have the wrong JSON type; the
    # non-integer catalog ids were once silently truncated to entry 1
    BAD_TYPES = {
        "params-list": '{"kind": "expr", "defs": "F1 = t", "params": [1, 2]}',
        "param-pair-str": '{"kind": "expr", "defs": "F1 = a", "params": {"a": [1, "x"]}}',
        "const-defs-int": '{"kind": "const", "defs": 5}',
        "expr-defs-int": '{"kind": "expr", "defs": 5}',
        "catalog-defs-str": '{"kind": "catalog", "defs": "x"}',
        "catalog-defs-list": '{"kind": "catalog", "defs": [1]}',
        "catalog-defs-float": '{"kind": "catalog", "defs": 1.7}',
        "catalog-defs-bool": '{"kind": "catalog", "defs": true}',
    }

    @pytest.fixture
    def files(self, tmp_path, const_field):  # const_field is tmp_path/const.json
        docs = {"malformed": '{"kind": "expr", "defs": "F1 = t"',
                "no_defs": '{"kind": "expr", "params": {}}',
                "not_object": '[1, 2]',
                **self.BAD_TYPES}
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
        *(["propagate", "--field", f"{name}.json", "--v0", "1,0", "--window", "0.2", "1"]
          for name in BAD_TYPES),
    ], ids=["window-inf", "nodes-0", "invert-nodes-3", "darboux-nodes-4",
            "json-malformed", "json-no-defs", "json-not-object", "verify-w0",
            "verify-points-0", *(f"json-{name}" for name in BAD_TYPES)])
    def test_exits_2(self, files, argv):
        p = _python(["-m", "spineq.cli", *argv], files, timeout=FAST_TIMEOUT_S)
        assert p.returncode == 2, p.stderr
        assert p.stderr.startswith("ERROR 2:")

    @pytest.mark.parametrize("argv", [
        ["propagate", "--field", "{dir}", "--v0", "1,0", "--window", "0", "1"],
        ["propagate", "--field", "{latin1}", "--v0", "1,0", "--window", "0", "1"],
        ["propagate", "--field", "{const}", "--v0", "1,0", "--window", "0", "1",
         "--nodes", "3", "--out", "{dir}"],
        ["propagate", "--field", "{const}", "--v0", "nan,0", "--window", "0", "1"],
        ["invert", "--field", "{const}", "--v0", "1,0,inf,0", "--window", "0", "1"],
        ["bloch", "--field", "{const}", "--n0", "nan,0,0", "--window", "0", "1"],
    ], ids=["field-dir", "field-not-utf8", "out-dir", "v0-nan", "invert-v0-inf",
            "bloch-n0-nan"])
    def test_exits_2_in_process(self, tmp_path, const_field, capsys, argv):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"kind": "expr", "defs": "F1 = t", "note": "é"}'.encode("latin-1"))
        paths = {"dir": str(tmp_path), "latin1": str(latin1), "const": const_field}
        assert run([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")

    # the probes that once escaped as a bare RecursionError, exit 1 with a
    # traceback, and 250 nested calls
    DEEP = {"signs-3000": "-" * 3000 + "t", "sum-2000": "+".join(["t"] * 2000),
            "sin-250": "sin(" * 250 + "t" + ")" * 250}

    @pytest.mark.parametrize("text", DEEP.values(), ids=DEEP)
    def test_deep_text_is_one_error_line(self, tmp_path, const_field, capsys, text):
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps({"kind": "expr", "defs": f"F1 = {text}; F3 = 1"}))
        for argv in (["propagate", "--field", str(deep), "--v0", "1,0,0,0",
                      "--window", "0.5", "1", "--nodes", "3"],
                     # "=": argparse would take a leading "-" for an option
                     ["reduce", "--field", const_field, "--l", "0,0,1", f"--alpha={text}",
                      "--window", "0.5", "1", "--nodes", "3"]):
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("ERROR 2: expression nested deeper than 100 levels (line 1,")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["propagate", "--field", "{const}", "--v0", "1,0", "--window", "0", "1",
         "--nodes", "{n}"],
        ["invert", "--field", "{const}", "--v0", "1,0", "--window", "0", "1",
         "--nodes", "{n}"],
        ["bloch", "--field", "{const}", "--n0", "1,0,0", "--window", "0", "1",
         "--nodes", "{n}"],
        ["reduce", "--field", "{const}", "--l", "0,0,1", "--alpha", "t",
         "--window", "0", "1", "--nodes", "{n}"],
        ["darboux", "--params", "f=0.5;R=1", "--window", "0", "1", "--nodes", "{n}"],
        ["verify", "--entry", "1", "--points", "{n}"],
    ], ids=["propagate", "invert", "bloch", "reduce", "darboux", "verify"])
    @pytest.mark.parametrize("n", [MAX_NODES + 1, 100_000_000_000])
    def test_huge_node_count_allocates_nothing(self, const_field, capsys, monkeypatch,
                                               argv, n):
        def no_linspace(*args, **kwargs):
            pytest.fail("np.linspace called for a rejected node count")

        monkeypatch.setattr(np, "linspace", no_linspace)
        assert run([arg.format(const=const_field, n=n) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("ERROR 2:")


class TestRejectedBeforeNumpy:
    """A declared pole, a non-finite --v0, a zero or non-finite --l and a
    parameter name that the entry or subcommand does not take exit 2 before
    numpy loads, reported as the library reports them; with two faults, the
    one the library checks first."""

    FILES = {
        "entry5.json": {"kind": "catalog", "defs": 5},
        "entry5_neg.json": {"kind": "catalog", "defs": 5,
                            "params": {"w": [-1.5, 0], "p0": [-0.7, 0]}},
        "affine.json": {"kind": "expr", "defs": "F3 = 1/(t - 0.505)"},
        "tan.json": {"kind": "expr", "defs": "F3 = tan(3*t)"},
        "smooth.json": {"kind": "expr", "defs": "F3 = 0.5"},
        "entry5_z.json": {"kind": "catalog", "defs": 5, "params": {"z": [1, 0]}},
        "time_param.json": {"kind": "expr", "defs": "F1 = t; F3 = t", "params": {"t": 5}},
        "huge_int.json": {"kind": "expr", "defs": "F1 = a", "params": {"a": 10**400}},
    }
    POLE_5 = "ERROR 2: window [0.2, 2.0] contains declared field poles at [1.5707963267948966]\n"
    CASES = {
        "propagate-pole": (["propagate", "--field", "entry5.json", "--v0", "1,0",
                            "--window", "0.2", "2"], POLE_5),
        "invert-pole": (["invert", "--field", "entry5.json", "--v0", "1,0",
                         "--window", "0.2", "2"], POLE_5),
        "bloch-pole": (["bloch", "--field", "entry5.json", "--n0", "0,0,1",
                        "--window", "0.2", "2"], POLE_5),
        "affine-pole": (["propagate", "--field", "affine.json", "--v0", "1,0",
                         "--window", "0", "1", "--nodes", "3"],
                        "ERROR 2: window [0.0, 1.0] contains declared field poles at [0.505]\n"),
        "tan-pole": (["bloch", "--field", "tan.json", "--n0", "1,0,0",
                      "--window", "0", "1", "--nodes", "3"],
                     "ERROR 2: window [0.0, 1.0] contains declared field poles at "
                     "[0.5235987755982988]\n"),
        "v0-nan": (["propagate", "--field", "smooth.json", "--v0", "nan,0",
                    "--window", "0", "1"], "ERROR 2: initial state V0 = nan,0 is not finite\n"),
        "invert-v0-inf": (["invert", "--field", "smooth.json", "--v0", "1,0,inf,0",
                           "--window", "0", "1"],
                          "ERROR 2: initial state V0 = 1,0,inf,0 is not finite\n"),
        "l-zero": (["reduce", "--field", "smooth.json", "--l", "0,-0,0", "--alpha", "t",
                    "--window", "0", "1"], "ERROR 2: transform axis must be nonzero\n"),
        "l-nan": (["reduce", "--field", "smooth.json", "--l", "nan,0,1", "--alpha", "t",
                   "--window", "0", "1"], "ERROR 2: transform axis must be finite\n"),
        "l-inf": (["reduce", "--field", "smooth.json", "--l", "0,-inf,0", "--alpha", "t",
                   "--window", "0", "1"], "ERROR 2: transform axis must be finite\n"),
        # two faults: propagate checks V0 before the poles, the CLI its --tol
        # before both, bloch_propagate its n0 before the poles, and reduce
        # parses --alpha before ReductionPlan.make checks the axis
        "v0-nan-and-pole": (["propagate", "--field", "entry5.json", "--v0", "nan,0",
                             "--window", "0.2", "2"],
                            "ERROR 2: initial state V0 = nan,0 is not finite\n"),
        "tol-and-v0-nan": (["propagate", "--field", "entry5.json", "--v0", "nan,0",
                            "--window", "0.2", "2", "--tol", "1e-15"],
                           "ERROR 2: --tol must lie in [1e-13, 0.001]\n"),
        "n0-and-pole": (["bloch", "--field", "entry5.json", "--n0", "1,1,0",
                         "--window", "0.2", "2"],
                        "ERROR 2: initial Bloch vector must be unit length\n"),
        "alpha-and-l": (["reduce", "--field", "smooth.json", "--l", "0,0,0", "--alpha", "t +",
                         "--window", "0", "1"],
                        "ERROR 2: unexpected 'end of input' (line 1, col 4)\n"),
        # parameter names: a name is case-sensitive, and an entry takes only its own
        "verify-name-case": (["verify", "--entry", "1", "--params", "A=2"],
                             "ERROR 2: entry 1 does not take ['A']; it takes ['a', 'b', 'c']\n"),
        "verify-name-unknown": (["verify", "--entry", "1", "--params", "z=1;a=1"],
                                "ERROR 2: entry 1 does not take ['z']; "
                                "it takes ['a', 'b', 'c']\n"),
        "verify-all-w": (["verify", "--all", "--params", "w=1"],
                         "ERROR 2: entry 1 does not take ['w']; it takes ['a', 'b', 'c']\n"),
        "darboux-name-unknown": (["darboux", "--params", "f=0.5;R=1;epsilon=0.4",
                                  "--window", "0", "1"],
                                 "ERROR 2: darboux does not take ['epsilon']; "
                                 "it takes ['f', 'R', 'phi0', 'eps']\n"),
        # a name given twice is refused, not read as its last value
        "verify-name-repeated": (["verify", "--entry", "1", "--params", "a=1;a=2",
                                  "--points", "5"],
                                 "ERROR 2: parameter 'a' is given twice\n"),
        "darboux-name-repeated": (["darboux", "--params", "f=0.5;R=1;f=0.6",
                                   "--window", "0", "1"],
                                  "ERROR 2: parameter 'f' is given twice\n"),
        "catalog-doc-name-unknown": (["propagate", "--field", "entry5_z.json", "--v0", "1,0",
                                      "--window", "0.2", "1"],
                                     "ERROR 2: entry 5 does not take ['z']; "
                                     "it takes ['a', 'b', 'c', 'w', 'p0']\n"),
        # a value for the time variable would be ignored; an integer past
        # the double range once escaped as an OverflowError
        "expr-doc-time-param": (["propagate", "--field", "time_param.json", "--v0", "1,0",
                                 "--window", "0.2", "1"],
                                "ERROR 2: 't' is the time variable and takes no parameter "
                                "value\n"),
        "expr-doc-huge-int": (["propagate", "--field", "huge_int.json", "--v0", "1,0",
                               "--window", "0.2", "1"],
                              "ERROR 2: a complex value's integer is past the double range\n"),
    }

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("rejected")
        for name, doc in self.FILES.items():
            (path / name).write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("name", list(CASES))
    def test_exits_2_without_numpy(self, files, name):
        argv, stderr = self.CASES[name]
        p = run_cli_refusing("numpy", argv, files)
        assert (p.returncode, p.stdout, p.stderr) == (2, "", stderr)
        assert p.refused == []

    @pytest.mark.parametrize("name", ["propagate-pole", "bloch-pole", "v0-nan", "l-nan"])
    def test_same_report_in_process(self, files, monkeypatch, capsys, name):
        monkeypatch.chdir(files)
        argv, stderr = self.CASES[name]
        assert run(argv) == 2
        assert capsys.readouterr().err == stderr

    @pytest.mark.parametrize("field, window", [("affine.json", ("0", "1")),
                                               ("tan.json", ("0", "1")),
                                               ("entry5_neg.json", ("-10", "10"))])
    def test_pole_between_nodes_fails_fast(self, files, monkeypatch, capsys, field, window):
        # at 3 nodes no node is a pole: the solver once crawled up to it
        # for seconds and exited 3
        monkeypatch.chdir(files)
        start = time.perf_counter()
        rc = run(["propagate", "--field", field, "--v0", "1,0", "--window", *window,
                  "--nodes", "3"])
        assert time.perf_counter() - start < 0.5
        assert rc == 2
        err = capsys.readouterr().err
        assert "contains declared field poles at" in err
        if field == "entry5_neg.json":
            assert err.split("poles at")[1].count(",") == 18  # all 19 poles


class TestPoleWalk:
    """The CLI checks a field's declared poles before numpy loads."""

    def test_scaled_sine_divisor_fails_fast(self, tmp_path, monkeypatch, capsys):
        # a constant factor on the divisor once hid the pole: the solver
        # crawled up to it for seconds and exited 3
        (tmp_path / "f.json").write_text(json.dumps(
            {"kind": "expr", "defs": "F1 = 1; F3 = 1/(0.5*sin(t - 0.505))"}))
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        rc = run(["propagate", "--field", "f.json", "--v0", "1,0", "--window", "0", "1",
                  "--nodes", "3"])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert capsys.readouterr().err == (
            "ERROR 2: window [0.0, 1.0] contains declared field poles at [0.505]\n")
