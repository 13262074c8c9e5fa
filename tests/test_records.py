"""spineq's record classes (``_numbers.record``) and the imports they spare.

Every record class is frozen: built by position or keyword, with defaults,
equal only to a record of its own class with equal fields, hashed by its
fields and shown as ``Name(a=..., b=...)``.  The decorator builds these
methods as closures, so no spineq module imports dataclasses, and the CLI's
numpy-free invocations load neither dataclasses nor inspect.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC, run_cli_refusing
from spineq import catalog, expr, fields
from spineq._numbers import default_factory, record
from spineq.dynamics import Trajectory
from spineq.specfun import SeriesResult
from spineq.spinors import CVec3, EigenPair, Spinor

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@record
class Pair:
    a: int
    b: str = "b"
    c: list = default_factory(list)


@record
class OtherPair:
    a: int
    b: str = "b"
    c: list = default_factory(list)


class TestRecord:
    def test_positional_keyword_and_default_construction(self):
        assert (Pair(1, "x", [2]).a, Pair(1, "x", [2]).b, Pair(1, "x", [2]).c) == (1, "x", [2])
        assert Pair(1) == Pair(a=1) == Pair(1, b="b") == Pair(c=[], a=1)
        assert EigenPair(1j, Spinor(1, 0)).degenerate is False
        assert SeriesResult(value=2j, terms_used=3, truncation_estimate=0.0).terms_used == 3

    @pytest.mark.parametrize("args, kwargs", [((), {}), ((1, "x", [], 4), {}),
                                              ((1,), {"d": 2}), ((1,), {"a": 2}),
                                              ((), {"b": "x"})])
    def test_missing_or_unexpected_argument_raises_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match=r"^Pair\(\)"):
            Pair(*args, **kwargs)

    def test_assignment_and_deletion_raise_attribute_error(self):
        v = Spinor(1j, 2.0)
        with pytest.raises(AttributeError):
            v.v1 = 0
        with pytest.raises(AttributeError):
            v.new = 0
        with pytest.raises(AttributeError):
            del v.v2
        assert v == Spinor(1j, 2.0)

    def test_equality_holds_within_one_class_only(self):
        assert expr.Var("t") != expr.Num(1)
        assert expr.Var("t") == expr.Var("t") and expr.Var("t") != expr.Var("s")
        assert Pair(1) != OtherPair(1) and OtherPair(1) != Pair(1)
        assert Pair(1).__eq__(OtherPair(1)) is NotImplemented
        assert Pair(1) != (1, "b", [])
        # fields are compared as a tuple: the same NaN object is equal to itself
        nan = float("nan")
        assert expr.Num(nan) == expr.Num(nan) and expr.Num(nan) != expr.Num(float("nan"))

    def test_equal_records_hash_equal(self):
        node = expr.parse_expr("a*sin(2*t) + 1")
        assert hash(node) == hash(expr.parse_expr("a*sin(2*t) + 1"))
        assert {CVec3(1, 2j, 3), CVec3(1, 2j, 3)} == {CVec3(1, 2j, 3)}
        assert hash(Spinor(1, 0)) == hash((1, 0))

    def test_a_record_holding_a_dict_is_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(fields.ExprField(()))

    def test_default_factory_makes_a_fresh_value_per_instance(self):
        defs = fields.parse_field_spec("F1 = t").defs
        one, two = fields.ExprField(defs), fields.ExprField(defs)
        assert one.params == two.params == {} and one.params is not two.params
        one.params["a"] = 1
        assert two.params == {} and fields.ExprField(defs).params == {}
        assert fields.CatalogField(5).params is not fields.CatalogField(5).params
        assert Pair(1).c is not Pair(1).c

    def test_cached_property_still_caches(self):
        e = catalog.entry(5)
        assert isinstance(catalog.CatalogEntry.field_defs, functools.cached_property)
        assert e.field_defs is e.field_defs
        assert "field_defs" in vars(e)

    def test_repr_names_the_fields(self):
        assert repr(expr.parse_expr("-t")) == "Neg(arg=Var(name='t'))"
        assert repr(Pair(1)) == "Pair(a=1, b='b', c=[])"
        assert repr(CVec3(1, 0j, -2.5)) == "CVec3(x=1, y=0j, z=-2.5)"

    def test_array_fields_are_kept_as_given(self):
        import numpy as np

        times = np.linspace(0, 1, 3)
        traj = Trajectory(times, np.zeros((3, 2), complex), np.zeros((3, 3), complex), 1e-9)
        assert traj.times is times and traj.est_error == 1e-9


# pole rejected before numpy loads: entry 5's field has a pole at pi/2
_POLE_DOC = {"kind": "catalog", "defs": 5}
_POLE_ARGV = ["propagate", "--field", "entry5.json", "--v0", "1,0", "--window", "0.2", "2"]


@pytest.mark.parametrize("package", ["dataclasses", "inspect"])
def test_numpy_free_cli_loads_neither_dataclasses_nor_inspect(tmp_path, package):
    (tmp_path / "entry5.json").write_text(json.dumps(_POLE_DOC))
    run = run_cli_refusing(package, ["catalog", "list"], tmp_path)
    assert run.refused == []
    assert (run.returncode, run.stdout, run.stderr) == (0, GOLDEN["catalog-list"]["stdout"], "")
    run = run_cli_refusing(package, _POLE_ARGV, tmp_path)
    assert run.refused == []
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == ("ERROR 2: window [0.2, 2.0] contains declared field poles "
                          "at [1.5707963267948966]\n")


def test_no_spineq_module_imports_dataclasses():
    # in a new interpreter: pytest itself has loaded dataclasses here
    names = sorted(p.stem for p in (Path(SRC) / "spineq").glob("*.py"))
    assert {"cli", "dynamics", "darboux", "closed_forms"} <= set(names)
    code = ("import importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module('spineq' if name == '__init__' else 'spineq.' + name)\n"
            "print(sorted(m for m in ('dataclasses', 'numpy') if m in sys.modules))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    p = subprocess.run([sys.executable, "-c", code, *names], env=env,
                       capture_output=True, text=True, timeout=60)
    assert (p.returncode, p.stderr) == (0, "")
    assert p.stdout == "['numpy']\n"
