import cmath
import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spineq import catalog, expr
from spineq.errors import FieldParseError, SingularityError, SpinEqError
from spineq.expr import (BinOp, Call, Neg, Num, Var, eval_expr, parse_expr,
                         print_expr)
from spineq.fields import (CatalogField, ConstField, ExprField, dump_field_json,
                           eval_field, field_callable, load_field_json,
                           parse_field_spec, split_kg)
from spineq.spinors import CVec3

from conftest import assert_rel

GOLDEN = Path(__file__).with_name("catalog_field_golden.json")


def _hex(z: complex):
    return z.real.hex(), z.imag.hex()


class TestParser:
    def test_linear_plus_inverse(self):
        spec = parse_field_spec("F1 = a; F3 = b*t + c/t")
        f = eval_field(spec, 2.0, {"a": 1.0, "b": 2.0, "c": 4.0})
        assert_rel(f.as_array(), [1.0, 0.0, 6.0], 1e-15)

    def test_omitted_components_default_to_zero(self):
        spec = parse_field_spec("F3 = 2*t")
        f = eval_field(spec, 1.5, {})
        assert_rel(f.as_array(), [0, 0, 3.0], 1e-15)

    def test_complex_literal(self):
        spec = parse_field_spec("F1 = 1+2i")
        assert eval_field(spec, 0.0, {}).x == 1 + 2j

    def test_imaginary_unit(self):
        assert eval_expr(parse_expr("i*i"), 0.0, {}) == -1

    def test_precedence_and_power(self):
        assert eval_expr(parse_expr("2 + 3*4^2"), 0.0, {}) == 50
        assert eval_expr(parse_expr("2^3^2"), 0.0, {}) == 512  # right assoc
        assert eval_expr(parse_expr("-2^2"), 0.0, {}) == -4

    def test_functions(self):
        assert_rel(eval_expr(parse_expr("sin(t)^2 + cos(t)^2"), 0.7, {}), 1.0, 1e-15)
        assert_rel(eval_expr(parse_expr("coth(1.0)"), 0, {}),
                   math.cosh(1) / math.sinh(1), 1e-15)

    def test_syntax_error_carries_location(self):
        with pytest.raises(FieldParseError) as ei:
            parse_field_spec("F1 = 2 *\n* 3")
        assert ei.value.line == 2

    def test_unknown_function(self):
        with pytest.raises(FieldParseError, match="unknown function"):
            parse_expr("foo(t)")

    def test_unknown_identifier_at_eval(self):
        for text in ("a*t", "sin(a*t)"):  # not mistaken for a pole inside a call
            with pytest.raises(FieldParseError, match="unknown identifier"):
                eval_expr(parse_expr(text), 1.0, {})

    def test_trailing_input_rejected(self):
        with pytest.raises(FieldParseError):
            parse_expr("1 + 2 )")
        with pytest.raises(FieldParseError):
            parse_field_spec("F1 = 1 F3 = 2")

    def test_duplicate_component_rejected(self):
        with pytest.raises(FieldParseError, match="duplicate"):
            parse_field_spec("F1 = 1; F1 = 2")

    def test_bad_component_name(self):
        with pytest.raises(FieldParseError):
            parse_field_spec("F4 = 1")


class TestPrintRoundTrip:
    def _random_ast(self, rng, depth=0):
        kinds = ["num", "var", "neg", "bin", "call"] if depth < 4 else ["num", "var"]
        kind = rng.choice(kinds)
        if kind == "num":
            if rng.random() < 0.3:
                return Num(complex(0, float(np.round(rng.uniform(0.1, 5), 3))))
            return Num(complex(float(np.round(rng.uniform(-5, 5), 3))))
        if kind == "var":
            return Var(str(rng.choice(["t", "a", "b", "c"])))
        if kind == "neg":
            from spineq.expr import Neg

            return Neg(self._random_ast(rng, depth + 1))
        if kind == "call":
            fn = str(rng.choice(["sin", "cos", "exp", "sqrt", "tanh"]))
            return Call(fn, self._random_ast(rng, depth + 1))
        op = str(rng.choice(["+", "-", "*", "/", "^"]))
        return BinOp(op, self._random_ast(rng, depth + 1),
                     self._random_ast(rng, depth + 1))

    def test_parse_print_parse_idempotent(self, rng):
        # parse(print(parse(text))) == parse(text) for arbitrary input text
        for _ in range(300):
            text = print_expr(self._random_ast(rng))
            ast1 = parse_expr(text)
            text2 = print_expr(ast1)
            ast2 = parse_expr(text2)
            assert ast2 == ast1, f"round trip failed for {text!r} -> {text2!r}"
            assert print_expr(ast2) == text2

    def test_statement_round_trip(self):
        text = "F1 = a*tan(w*t + p0); F3 = b*tan(w*t + p0) + c*cot(w*t + p0)"
        spec = parse_field_spec(text)
        again = parse_field_spec(spec.text())
        assert spec.defs == again.defs


class TestEval:
    def test_const_field(self):
        spec = ConstField((0, 0, 1))
        for t in (-3.0, 0.0, 7.5):
            assert eval_field(spec, t).as_array()[2] == 1

    def test_catalog_entry_16_field(self):
        f = eval_field(CatalogField(16, {"a": 1.0, "b": 2.0, "c": 0.0}), 1.0)
        assert_rel(f.as_array(), [1.0, 0.0, 2.0], 1e-15)

    def test_cot_pole(self):
        spec = parse_field_spec("F3 = cot(t)")
        with pytest.raises(SingularityError) as ei:
            eval_field(spec, 0.0, {})
        assert ei.value.t == 0.0

    def test_free_parameters(self):
        spec = parse_field_spec("F1 = a*sin(w*t); F3 = b + 0.5")
        assert spec.free_parameters() == {"a", "w", "b"}


class TestSplitKG:
    def test_basic(self):
        K, G = split_kg(CVec3(1 + 2j, 0, 3))
        assert_rel(K, [1, 0, 3], 0)
        assert_rel(G, [2, 0, 0], 0)

    def test_real_field(self):
        K, G = split_kg(CVec3(1.5, -2.0, 0.25))
        assert np.all(G == 0)

    def test_reassembly_bit_exact(self, rng):
        for _ in range(50):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            K, G = split_kg(CVec3.from_array(v))
            assert np.all(K + 1j * G == v)


class TestJsonEnvelope:
    def test_expr_round_trip(self, tmp_path):
        doc = {"kind": "expr", "defs": "F1 = a; F3 = b*t + c/t",
               "params": {"a": [1, 0], "b": [2, 0], "c": [0.5, -0.25]}}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        spec = load_field_json(path)
        assert isinstance(spec, ExprField)
        assert spec.params["c"] == 0.5 - 0.25j
        again = dump_field_json(spec)
        assert load_field_json(again).defs == spec.defs

    def test_const_and_catalog(self):
        spec = load_field_json({"kind": "const", "defs": [[0, 0], [1, -1], [2, 0]]})
        assert isinstance(spec, ConstField)
        spec = load_field_json({"kind": "catalog", "defs": 5, "params": {"a": 1.5}})
        assert isinstance(spec, CatalogField)
        assert spec.entry_id == 5

    def test_missing_params_rejected(self):
        with pytest.raises(FieldParseError, match="missing parameter"):
            load_field_json({"kind": "expr", "defs": "F1 = a*t", "params": {}})

    def test_unknown_kind_rejected(self):
        with pytest.raises(FieldParseError):
            load_field_json({"kind": "smooth", "defs": 1})

    @pytest.mark.parametrize("text, match", [
        ('{"kind": "expr", "defs": "F1 = t"', "not valid JSON"),
        ('{"kind": "expr", "params": {}}', "no 'defs'"),
        ('[1, 2]', "JSON object"),
    ], ids=["malformed", "no-defs", "not-object"])
    def test_bad_document_rejected(self, tmp_path, text, match):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(FieldParseError, match=match):
            load_field_json(path)


class TestCatalogFieldGolden:
    def test_dsl_fields_match_retired_closures(self):
        # each catalog field is defined only by its field_dsl; the values the
        # hand-written per-entry functions returned must still come out bit
        # for bit, through the one-shot and the bound route alike
        golden = json.loads(GOLDEN.read_text())["entries"]
        assert sorted(map(int, golden)) == list(range(1, catalog.N_ENTRIES + 1))
        for eid, rows in golden.items():
            e = catalog.entry(int(eid))
            bound = field_callable(CatalogField(e.id))
            for row in rows:
                t, *parts = map(float.fromhex, row)
                want = [complex(parts[0], parts[1]), complex(parts[2], parts[3])]
                f = bound(t)
                for got in (catalog.entry_field(e.id, None, t), (f[0], f[2])):
                    assert [_hex(z) for z in got] == [_hex(z) for z in want], (eid, t)


class _NoPerNodeCheck:
    """expr's cmath with the scalar path's finite test made to fail, so that
    an array call that falls back to the per-node loop is caught."""

    def __getattr__(self, name):
        return getattr(cmath, name)

    @staticmethod
    def isfinite(z):
        raise AssertionError("the array call fell back to the per-node loop")


def _assert_array_call_matches_loop(fn, times, monkeypatch):
    """fn(times) against the per-node loop: the same bits without a fallback,
    or the same error type, message and t.  True if the values matched."""
    try:
        want = np.array([fn(t) for t in times])
    except SpinEqError as exc:
        with pytest.raises(type(exc)) as got:
            fn(times)
        assert str(got.value) == str(exc)
        assert got.value.t == exc.t
        return False
    with monkeypatch.context() as m:
        m.setattr(expr, "cmath", _NoPerNodeCheck())
        got = fn(times)
    assert got.shape == want.shape == (len(times), 3)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    return True


_finite = st.floats(-4, 4, allow_nan=False)  # hits +-0.0
_leaf = st.one_of(
    st.builds(Num, st.builds(complex, _finite, _finite)),
    st.sampled_from([Var("t"), Var("t"), Var("a"), Var("b"), Num(complex(-0.0, 0.0))]))
_ast = st.recursive(_leaf, lambda sub: st.one_of(
    st.builds(Neg, sub),
    st.builds(Call, st.sampled_from(sorted(expr.FUNCTIONS)), sub),
    st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub)),
    max_leaves=12)


class TestArrayCall:
    """A field callable given an array of times returns the per-node loop's
    samples bit for bit, or raises the per-node loop's error."""

    @pytest.mark.parametrize("eid", range(1, 27))
    def test_catalog_fields(self, eid, monkeypatch):
        e = catalog.entry(eid)
        rng = np.random.default_rng([eid, 5])
        matched = 0
        for p in [e.merged(None)] + [e.draw_params(rng) for _ in range(3)]:
            t0, t1 = e.window_for(p)
            specs = (CatalogField(eid, p), ExprField(parse_field_spec(e.field_dsl).defs, p))
            for times in (np.linspace(t0, t1, 201), np.linspace(-t1, -t0, 51)):
                for spec in specs:
                    matched += _assert_array_call_matches_loop(field_callable(spec), times,
                                                               monkeypatch)
        assert matched >= 8  # both routes on the default window at least

    @given(st.lists(st.one_of(_ast, st.none()), min_size=3, max_size=3),
           st.builds(complex, _finite, _finite), st.builds(complex, _finite, _finite),
           st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_random_expressions(self, nodes, a, b, ts):
        defs = tuple((comp, node) for comp, node in zip(("F1", "F2", "F3"), nodes)
                     if node is not None)
        with pytest.MonkeyPatch.context() as m:
            _assert_array_call_matches_loop(field_callable(ExprField(defs, {"a": a, "b": b})),
                                            np.array(ts + [0.0, -0.0]), m)

    @pytest.mark.parametrize("text", ["1/(t - 0.5)", "3e12*t", "ln(t - 0.25)"])
    def test_compiled_expression_errors_match_per_node(self, text):
        fn = expr.compile_expr(parse_expr(text), {})
        times = np.linspace(0, 1, 801)
        with pytest.raises(SingularityError) as want:
            [fn(t) for t in times]
        with pytest.raises(SingularityError) as got:
            fn(times)
        assert (str(got.value), got.value.t) == (str(want.value), want.value.t)

    def test_dropped_binding_needs_no_cyclic_collection(self):
        # a binding per parameter set is made and dropped per op; a reference
        # cycle would keep each one, with its compiled trees, until a full
        # collection, which showed as a higher peak memory
        spec = parse_field_spec("F1 = a*cos(t); F3 = 1/(t - 0.5)")
        gc.collect()
        gc.disable()
        try:
            for a in (0.5, 0.25):
                fn = field_callable(spec, {"a": a})
                fn(0.3)
                fn(np.linspace(0, 0.4, 5))
                try:
                    fn(np.linspace(0, 1, 5))
                except SingularityError:
                    pass
            del fn
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_const_field(self, monkeypatch):
        fn = field_callable(ConstField((1.5, complex(-0.0, 2.0), 0j)))
        assert _assert_array_call_matches_loop(fn, np.linspace(-1, 1, 7), monkeypatch)

    @pytest.mark.parametrize("text, times, t_err", [
        ("F3 = 1/(t - 0.5)", np.linspace(0, 1, 801), 0.5),
        # F1 fails first on the array, but F3 fails at an earlier node
        ("F1 = 1/(t - 0.75); F3 = ln(t - 0.25)", np.linspace(0, 1, 5), 0.25),
        ("F1 = 0.5; F2 = 3e12*t", np.linspace(0, 1, 11), 0.4),
        ("F3 = 1e200*t*1e200", np.linspace(-1, 1, 9), -1.0),  # inf, nothing raised
    ], ids=["pole-on-node", "component-order", "above-threshold", "non-finite"])
    def test_errors_match_per_node(self, text, times, t_err, monkeypatch):
        fn = field_callable(parse_field_spec(text))
        assert not _assert_array_call_matches_loop(fn, times, monkeypatch)
        with pytest.raises(SingularityError) as got:
            fn(times)
        assert got.value.t == t_err
