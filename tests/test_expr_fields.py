import json
import math

import numpy as np
import pytest

from spineq import catalog
from spineq.errors import FieldParseError, SingularityError
from spineq.expr import (BinOp, Call, Num, Var, eval_expr, parse_expr,
                         print_expr)
from spineq.fields import (CatalogField, ConstField, ExprField, dump_field_json,
                           eval_field, load_field_json, parse_field_spec,
                           split_kg)
from spineq.spinors import CVec3

from conftest import assert_rel


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
        with pytest.raises(FieldParseError, match="unknown identifier"):
            eval_expr(parse_expr("a*t"), 1.0, {})

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


class TestCatalogFieldEquivalence:
    def test_all_entries_match_their_dsl(self, rng):
        # the closure route and the parsed-DSL route agree at random times
        for e in catalog.entries():
            p = dict(e.default_params)
            spec_dsl = parse_field_spec(e.field_dsl)
            window = e.window_for(p)
            poles = e.poles(p, window)
            count = 0
            while count < 100:
                t = rng.uniform(window[0], window[1])
                if poles and min(abs(t - q) for q in poles) < 0.05:
                    continue
                count += 1
                direct = eval_field(CatalogField(e.id, p), t).as_array()
                via_dsl = eval_field(spec_dsl, t, p).as_array()
                assert_rel(direct, via_dsl, 1e-14,
                           scale=1 + float(np.max(np.abs(direct))))
