import cmath
import contextlib
import gc
import io
import json
import math
import operator
import re
import types
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spineq import catalog, expr
from spineq.errors import DomainError, FieldParseError, SingularityError, SpinEqError
from spineq.expr import (BinOp, Call, Neg, Num, Var, eval_expr, parse_expr,
                         print_expr)
from spineq.fields import (CatalogField, ConstField, ExprField, _nodes, bind_field,
                           check_poles, dump_field_json, eval_field, field_callable,
                           load_field_json, parse_field_spec, split_kg)
from spineq.spinors import CVec3, sigma_dot

from conftest import assert_rel

GOLDEN = Path(__file__).with_name("catalog_field_golden.json")


def _hex(z: complex):
    return z.real.hex(), z.imag.hex()


class TestParser:
    def test_linear_plus_inverse(self):
        spec = parse_field_spec("F1 = a; F3 = b*t + c/t")
        f = eval_field(ExprField(spec.defs, {"a": 1.0, "b": 2.0, "c": 4.0}), 2.0)
        assert_rel(f.as_array(), [1.0, 0.0, 6.0], 1e-15)

    def test_omitted_components_default_to_zero(self):
        spec = parse_field_spec("F3 = 2*t")
        f = eval_field(spec, 1.5)
        assert_rel(f.as_array(), [0, 0, 3.0], 1e-15)

    def test_complex_literal(self):
        spec = parse_field_spec("F1 = 1+2i")
        assert eval_field(spec, 0.0).x == 1 + 2j

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

    # a text of each way to nest, n levels deep in the parser (parentheses,
    # calls, signs, powers) or in the AST (a sum of n terms is n deep), and
    # whether 1/(it) has a declared pole at t = 0
    NESTINGS = {"parens": (lambda n: "(" * (n - 1) + "t" + ")" * (n - 1), True),
                "sin": (lambda n: "sin(" * (n - 1) + "t" + ")" * (n - 1), False),
                "signs": (lambda n: "-" * (n - 1) + "t", True),
                "powers": (lambda n: "t^" * (n - 1) + "t", False),
                "sum": (lambda n: "+".join(["t"] * n), True)}
    # one level past expr.MAX_DEPTH, and far past it: each of the last three
    # once escaped as a bare RecursionError
    PAST_BOUND = {**{k: nest(101) for k, (nest, _) in NESTINGS.items()},
                  "signs-3000": "-" * 3000 + "t", "sum-2000": "+".join(["t"] * 2000),
                  "sin-250": "sin(" * 250 + "t" + ")" * 250}

    @pytest.mark.parametrize("text", PAST_BOUND.values(), ids=PAST_BOUND)
    def test_nesting_past_the_bound_is_a_parse_error(self, text):
        for parse in (parse_expr, lambda x: parse_field_spec(f"F1 = {x}; F3 = 1"),
                      lambda x: load_field_json({"kind": "expr", "defs": f"F1 = {x}"})):
            with pytest.raises(FieldParseError, match="nested deeper than 100 levels"):
                parse(text)

    @pytest.mark.parametrize("nest, pole", NESTINGS.values(), ids=NESTINGS)
    def test_nesting_at_the_bound_is_taken_everywhere(self, nest, pole):
        # FieldCode's _walk and print_expr walk F1's 100 levels, and poles'
        # _affine those of F3's divisor; the printed text parses again
        spec = parse_field_spec(f"F1 = {nest(100)}; F3 = 1/({nest(99)})")
        _, rhs = bind_field(spec)
        assert np.isfinite(rhs(0.5, np.array([1, 0j]))).all()
        assert parse_field_spec(spec.text()).defs == spec.defs
        if pole:
            with pytest.raises(DomainError, match=r"declared field poles at \[0.0\]"):
                check_poles(spec, (-1, 1))
        else:
            check_poles(spec, (-1, 1))


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

    @pytest.mark.parametrize("text", ["-(-t)*x", "x*-(-t)", "-(-t)^2", "2 - -t", "sin(--t)"])
    def test_a_sign_on_a_sign_round_trips(self, text):
        ast = parse_expr(text)
        assert parse_expr(print_expr(ast)) == ast

    def test_sign_runs_round_trip_up_to_the_bound(self):
        # a sign on a sign is printed without parentheses, so n signs take
        # n parser levels again; they once took about 2n, past the bound
        # from 51 signs
        for n in range(1, 100):
            ast = parse_expr("-" * n + "t")
            assert parse_expr(print_expr(ast)) == ast
        doc = {"kind": "expr", "defs": "F1 = " + "-" * 60 + "t; F3 = 1"}
        spec = load_field_json(doc)
        again = load_field_json(dump_field_json(spec))
        assert again.defs == spec.defs

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
            eval_field(spec, 0.0)
        assert ei.value.t == 0.0

    def test_free_parameters(self):
        spec = parse_field_spec("F1 = a*sin(w*t); F3 = b + 0.5")
        assert spec.free_parameters() == {"a", "w", "b"}



class TestScaledDivisorPoles:
    """A divisor c*X, X*c or X/c, c a real, finite and nonzero number or
    parameter, declares the poles of X; any other c declares nothing."""

    @staticmethod
    def poles(text, params=None, window=(0.0, 1.0)):
        return expr.poles((parse_expr(text),), params or {}, window)

    @pytest.mark.parametrize("text", ["1/(0.5*sin(t - 0.505))", "1/(sin(t - 0.505)*0.5)",
                                      "1/(sin(t - 0.505)/4)", "1/(2*(3*sin(t - 0.505)))",
                                      "1/(-2*sin(t - 0.505))", "1/((1 + 0i)*sin(t - 0.505))",
                                      "1/(0.5*(t - 0.505))"])
    def test_real_factor_is_read(self, text):
        assert self.poles(text) == [0.505]

    @pytest.mark.parametrize("text", ["1/(0*sin(t - 0.505))", "1/(sin(t - 0.505)/0)",
                                      "1/(2i*sin(t - 0.505))", "1/((1 + 1i)*sin(t - 0.505))",
                                      "1/(1e200*1e200*sin(t - 0.505))", "1/(t*sin(t - 0.505))"])
    def test_other_factor_declares_nothing(self, text):
        assert self.poles(text) == []

    def test_parameter_factor(self):
        text, window = "1/(b*sin(t))", (-1.0, 4.0)
        assert self.poles(text, {"b": 2.0}, window) == [0.0, math.pi]
        assert self.poles(text, {"b": -0.25 + 0j}, window) == [0.0, math.pi]
        for b in (0.0, -0.0, 1j, 0.5 + 0.5j, math.inf, math.nan):
            assert self.poles(text, {"b": b}, window) == []
        assert self.poles(text, {}, window) == []  # unbound

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

    def test_unused_parameters_rejected(self):
        # 'i' is the imaginary unit and 'A' a misspelt 'a': neither is a
        # parameter of the text, and neither may pass unnoticed
        doc = {"kind": "expr", "defs": "F1 = i*t; F3 = a", "params": {"i": 5, "a": 1, "A": 2}}
        with pytest.raises(FieldParseError) as info:
            load_field_json(doc)
        assert str(info.value) == "the field text does not take ['A', 'i']; it takes ['a']"

    def test_time_variable_takes_no_value(self):
        # 't' is the time at every node: a value for it would be ignored
        with pytest.raises(FieldParseError, match="'t' is the time variable"):
            load_field_json({"kind": "expr", "defs": "F1 = t; F3 = t", "params": {"t": 5}})

    @pytest.mark.parametrize("value", [10**400, [1, -10**400]])
    def test_integer_past_double_range_rejected(self, value):
        doc = {"kind": "expr", "defs": "F1 = a", "params": {"a": value}}
        for source in (doc, io.StringIO(json.dumps(doc))):
            with pytest.raises(FieldParseError, match="past the double range"):
                load_field_json(source)

    def test_integer_of_too_many_digits_rejected(self):
        text = '{"kind": "expr", "defs": "F1 = a", "params": {"a": ' + "1" * 5000 + "}}"
        with pytest.raises(FieldParseError, match="not valid JSON"):
            load_field_json(io.StringIO(text))

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


def _no_per_node_call(code, t):
    """FieldCode's sample at one time, made to fail, so that an array call
    that falls back to the per-node loop is caught."""
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
        m.setattr(expr.FieldCode, "sample", _no_per_node_call)
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
            # 2001 nodes: the size of a benchmark write
            for times in (np.linspace(t0, t1, 201), np.linspace(-t1, -t0, 51),
                          np.linspace(t0, t1, 2001)):
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
                fn = field_callable(ExprField(spec.defs, {"a": a}))
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


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": operator.pow}


def _reference(node, t, params):
    """The DSL's meaning, by walking the tree as the closures the generated
    code replaced did: the value at one time t, or the SingularityError of
    the first operation that fails or of a value that is not finite or
    above the threshold."""
    def ev(n):
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Var):
            return complex(t) if n.name == "t" else complex(params[n.name])
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, Call):
            x = ev(n.arg)
            try:
                return expr.FUNCTIONS[n.fn](x)
            except (ValueError, OverflowError, ZeroDivisionError):
                raise SingularityError(f"{n.fn} pole at t = {t}", t=t) from None
        x, y = ev(n.left), ev(n.right)
        try:
            return _OPS[n.op](x, y)
        except (ValueError, OverflowError, ZeroDivisionError):
            raise SingularityError(f"'{n.op}' overflow/pole at t = {t}", t=t) from None

    v = ev(node)
    # math.hypot, not abs: a finite v whose modulus passes the double range
    # is singular, where abs raises OverflowError
    if not cmath.isfinite(v) or math.hypot(v.real, v.imag) > expr.SINGULARITY_THRESHOLD:
        raise SingularityError(f"field component singular at t = {t}", t=t)
    return v


def _outcome(fn, *args):
    """The bits of fn's value, or its error's type, message and t."""
    try:
        v = np.asarray(fn(*args), dtype=complex)
    except SpinEqError as exc:
        return type(exc), str(exc), exc.t
    return v.shape, v.reshape(-1).view(np.int64).tolist()


_times = st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, math.pi / 2, 1e-300])
                  | st.floats(-3, 3, allow_nan=False), min_size=1, max_size=8)


class TestGeneratedCode:
    """The generated code against a tree walk: the same bits, the same errors."""

    @given(_ast, st.builds(complex, _finite, _finite), st.builds(complex, _finite, _finite),
           _times)
    @example(parse_expr("1/t + cot(t) - ln(t)"), 1j, 2, [0.5, 0.0])
    @example(parse_expr("tan(a*t) ^ (2 - 3i) / sqrt(t) - coth(b*t)"), 1, -0.0, [1e-300, 0.0])
    @example(parse_expr("exp(exp(t*a)) - sinh(b) * cosh(-t) + tanh(t) - sin(t)*cos(t)"),
             700, 1, [1.0, -1.0])
    # repeated subtrees, each computed once, and 0 and -0 in one AST
    @example(parse_expr("a*tan(b*t + 1) + tan(b*t + 1)*cot(b*t + 1)"), 0.5, 2 - 1j,
             [0.5, -0.5, 0.0, 1.0])
    @example(parse_expr("cot(t) + 1/sin(t)"), 1, 1, [0.0])  # the cot's division fails
    @example(parse_expr("1/sin(t) + cot(t)"), 1, 1, [0.0])  # the '/' fails first
    @example(parse_expr("coth(t)*sinh(t) - cosh(t)/sinh(t)"), 1, 1, [0.7, -0.0, 0.0])
    @example(parse_expr("0*t + -0*t"), 1, 1, [1.0, -1.0, 0.0])
    # the grid's pair arithmetic: a constant over t, whose zero divisor the
    # grid raises on rather than leave a NaN that ^0 would turn into 1
    @example(parse_expr("(2 - 3i)/t"), 1, 1, [0.5, -0.0, 1e-300])
    @example(parse_expr("(1/t)^0 + t"), 1, 1, [0.5, -2.0, 0.0])
    # -0.0 parts of a constant against t's 0.0 imaginary part
    @example(BinOp("*", Num(complex(-0.0, -2.0)), Var("t")), 1, 1, [0.0, -0.0, 1.0])
    @example(BinOp("*", Var("t"), Num(complex(1.5, -0.0))), 1, 1, [0.0, -0.0, 1.0])
    @example(parse_expr("(a*t + 1)^3 - t^2 + (2*t)^(-1)"), 0.5 - 1j, 1, [0.5, -1.5, 0.0])
    @example(parse_expr("t^(0.5 + 2i) + (1 - t)^b"), 1, 0.5 + 1j, [0.5, 2.0, 0.0])
    # operations on constants alone, which the grid keeps as Python complex
    @example(parse_expr("(a + 2i)*(b - 1)/3*sin(a) + t - exp(b)^2"), 0.5, -1 + 1j,
             [0.25, -0.0])
    @settings(max_examples=300, deadline=None)
    def test_scalar_and_grid_match_the_tree_walk(self, node, a, b, ts):
        params = {"a": a, "b": b}
        fn = expr.compile_expr(node, params)
        want = [_outcome(_reference, node, t, params) for t in ts]
        assert [_outcome(fn, t) for t in ts] == want
        assert [_outcome(expr.eval_expr, node, t, params) for t in ts] == want
        errors = [w for w in want if w[0] is SingularityError]
        got = _outcome(fn, np.array(ts))
        if errors:
            assert got == errors[0]
        else:
            values = np.array([_reference(node, t, params) for t in ts])
            assert got == _outcome(lambda: values)

    def test_signed_zeros_keep_their_own_code(self):
        # 0 and -0 are equal numbers and equal ASTs, but -0*t has a -0.0
        # imaginary part at t = 1: each AST must keep its own numbers
        for text in ("0*t", "-0*t", "0*t"):
            node = parse_expr(text)
            assert _outcome(expr.compile_expr(node, {}), 1.0) == \
                _outcome(_reference, node, 1.0, {})

    @pytest.mark.parametrize("eid", range(1, 27))
    def test_an_entry_field_computes_each_operation_once(self, eid):
        # the (F1, 0, F3) code bind_field runs: no expression text twice,
        # and cot and coth as their quotients, no call of a lambda
        defs = catalog.entry(eid).field_defs
        ops, _, _, _ = expr._generate((defs["F1"], None, defs["F3"]))
        texts = [text for text, _ in ops]
        assert len(set(texts)) == len(texts)
        assert not [text for text in texts if re.search(r"\bcoth?\(", text)]

    @pytest.mark.parametrize("text, message", [
        ("F1 = 1/sin(t); F3 = cot(t)", "'/' overflow/pole at t = 0.0"),
        ("F1 = cot(t); F3 = 1/sin(t)", "cot pole at t = 0.0"),
    ])
    def test_an_op_shared_by_two_components_raises_the_first_error(self, text, message):
        # sin(t) is one op of F1 and F3: the first failing op names the error
        fn = field_callable(parse_field_spec(text))
        for call in (lambda: fn(0.0), lambda: fn(np.array([0.5, 0.0, -0.5]))):
            with pytest.raises(SingularityError) as got:
                call()
            assert (str(got.value), got.value.t) == (message, 0.0)

    def test_fields_of_one_shape_share_one_code_object(self, monkeypatch):
        text = "F1 = a*sin(w*t); F3 = b + 1/t"
        first = expr.FieldCode([parse_field_spec(text).component("F1")], {"a": 1, "w": 2})
        again = expr.FieldCode([parse_field_spec(text).component("F1")], {"a": 3, "w": 4})
        assert again.scalar.__code__ is first.scalar.__code__
        # a bound AST is not generated again: binding it costs its parameters
        node = parse_expr("c*cos(t) + d")
        expr.compile_expr(node, {"c": 1, "d": 2})
        monkeypatch.setattr(expr, "_generate", None)
        assert expr.compile_expr(node, {"c": 2, "d": 0})(0.0) == 2

    def test_an_entry_field_runs_the_code_of_its_binding(self, monkeypatch):
        # entry_field evaluates the (F1, None, F3) shape that bind_field
        # compiles: each entry's field is compiled once per process
        made = []

        def function_type(code, namespace):
            made.append(code)
            return types.FunctionType(code, namespace)

        monkeypatch.setattr(expr, "types", SimpleNamespace(FunctionType=function_type))
        for eid in range(1, 27):
            e = catalog.entry(eid)
            t = sum(e.window_for(e.merged(None))) / 2
            made.clear()
            catalog.entry_field(eid, None, t)
            field_callable(CatalogField(eid))(t)
            assert len(made) == 2 and made[0] is made[1], eid

    # builtins, keywords of the generated code and the generated names
    HOSTILE = ["exec", "eval", "__import__", "open", "__builtins__", "complex", "abs",
               "isfinite", "f", "at", "_0", "_c0", "_c1", "_pole", "_FAILS", "_LIMIT"]

    @given(st.lists(st.sampled_from(HOSTILE), min_size=1, max_size=4, unique=True),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_no_input_text_reaches_the_source(self, names, seed):
        rng = np.random.default_rng(seed)
        terms = [f"{name}*{fn}({rng.integers(1, 9)}.{rng.integers(0, 99)}*t + {name})"
                 for name, fn in zip(names, rng.choice(sorted(expr.FUNCTIONS), len(names)))]
        text = "F1 = " + " - ".join(terms) + "; F3 = 7.25e-3i ^ t"
        spec = parse_field_spec(text)
        params = {name: complex(rng.uniform(0.1, 1), rng.uniform(-1, 1)) for name in names}
        nodes = tuple(spec.component(c) for c in ("F1", "F2", "F3"))
        ops, results, ends, _ = expr._generate(nodes)
        allowed = {"def", "return", "try", "except", "if", "not", "or", "f", "t", "at",
                   "complex", "abs", "isfinite", "_pole", "_FAILS", "_LIMIT", *expr.FUNCTIONS}
        for checked in (False, True):
            code = expr._source(ops, results, ends, checked)
            # the messages are the generator's own text; then no name is
            # the input's and no number is written out
            code = re.sub(r"\"'[-+*/^]' overflow/pole\"|'\w+ pole'|'field component singular'",
                          "", code)
            code = re.sub(r"\b_c?\d+\b", "", code)
            assert set(re.findall(r"[A-Za-z_]\w*", code)) <= allowed
            assert not re.search(r"\d", code)
        fn = field_callable(ExprField(spec.defs, params))
        for t in (0.3, 1.7):
            want = [_reference(n, t, params) if n is not None else 0j for n in nodes]
            assert fn(t).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


class TestFusedRhs:
    @pytest.mark.parametrize("eid", range(1, 27))
    def test_rhs_is_sigma_dot_matmul_bit_for_bit(self, eid):
        # the catalog's fields are real at real parameters, where a product
        # in Python arithmetic would round as matmul does; complex
        # parameters and an F2 make sigma.F complex, where it would not
        e = catalog.entry(eid)
        rng = np.random.default_rng([eid, 12])
        defs = parse_field_spec(e.field_dsl + "; F2 = a*sin(t)").defs
        for p in [e.merged(None)] + [e.draw_params(rng) for _ in range(3)]:
            t0, t1 = e.window_for(p)
            twisted = {k: v * cmath.exp(0.3j) if k in "abc" else v for k, v in p.items()}
            for spec in (CatalogField(eid, p), ExprField(parse_field_spec(e.field_dsl).defs, p),
                         CatalogField(eid, twisted), ExprField(defs, twisted)):
                field, rhs = bind_field(spec)
                for t in rng.uniform(t0, t1, 20):
                    y = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3, 2) \
                        + 1j * rng.normal(size=2)
                    want = -1j * (sigma_dot(field(t)) @ y)
                    assert rhs(t, y).view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_dot_is_matmul_bit_for_bit(self):
        # the right-hand side's S.dot(y) against S @ y on 10**5 seeded 2x2
        # complex products with signed zeros, subnormals, infinities and NaN
        # in their parts; a NaN compares as a NaN, any other value by its bits
        rng = np.random.default_rng(20241019)
        n = 10 ** 5
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, math.inf,
                            -math.inf, math.nan])
        S, y = (rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
                for shape in ((n, 2, 2, 2), (n, 2, 2)))
        for parts in (S, y):
            mask = rng.random(parts.shape) < 0.2
            parts[mask] = rng.choice(special, mask.sum())
        S, y = S.view(complex)[..., 0], y.view(complex)[..., 0]
        assert np.signbit(S.real[S.real == 0]).any() and np.signbit(y.imag[y.imag == 0]).any()
        with np.errstate(all="ignore"):
            got = np.array([a.dot(b) for a, b in zip(S, y)]).view(float)
            want = np.array([a @ b for a, b in zip(S, y)]).view(float)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))

    @pytest.mark.parametrize("text, t", [
        ("F3 = 1/(t - 0.5)", 0.5), ("F1 = ln(t)", 0.0), ("F2 = 3e12*t", 0.5),
        ("F1 = 1/(t - 0.5); F3 = ln(t - 0.5)", 0.5), ("F1 = 1e200*t*1e200", 1.0),
        # F1 is not finite; F3's division, later in the code, fails too
        ("F1 = 1e200*t*1e200; F3 = 1/(t - 1)", 1.0),
        # each part finite, the modulus past the double range
        ("F1 = 1.5e308 + 1.5e308*i", 0.5),
        pytest.param(CatalogField(9), 0.0, id="catalog-coth-pole"),
        pytest.param(CatalogField(5), catalog.entry(5).poles(catalog.entry(5).merged(None),
                                                             (-2, 0))[0], id="catalog-tan-pole"),
        pytest.param(CatalogField(1, {"c": complex(math.nan)}), 0.5, id="catalog-nan-param"),
        pytest.param(ExprField(parse_field_spec("F2 = a*sin(t)").defs, {"a": math.nan}), 0.5,
                     id="expr-nan-param"),
    ])
    def test_rhs_fails_as_the_field_does(self, text, t):
        spec = parse_field_spec(text) if isinstance(text, str) else text
        field, rhs = bind_field(spec)
        with pytest.raises(SingularityError) as want:
            field(t)
        with pytest.raises(SingularityError) as got:
            rhs(t, np.array([1, 0j]))
        nodes, params = _nodes(spec)
        with pytest.raises(SingularityError) as walk:  # component by component
            [_reference(node, t, params) for node in nodes if node is not None]
        assert (str(got.value), got.value.t) == (str(want.value), want.value.t) \
            == (str(walk.value), walk.value.t)


def _expr_doc(e, params):
    return {"kind": "expr", "defs": e.field_dsl,
            "params": {k: [complex(v).real, complex(v).imag] for k, v in params.items()}}


class TestStatementCache:
    """Each field text is parsed once per process (expr.field_statements):
    its loads share the ASTs, and so the plan and code of their binding."""

    TEXT = "F3 = b*cos(w*t); F1 = a*sin(w*t) + 1/t"

    def test_a_text_gives_the_same_asts(self):
        first, again = parse_field_spec(self.TEXT), parse_field_spec(self.TEXT)
        assert [comp for comp, _ in first.defs] == ["F1", "F3"]
        assert all(a is b for (_, a), (_, b) in zip(first.defs, again.defs, strict=True))
        # parse_statements hands out a fresh dict, so no caller can change the cache
        defs = expr.parse_statements(self.TEXT)
        assert defs is not expr.parse_statements(self.TEXT)
        assert all(defs[comp] is node for comp, node in first.defs)
        defs["F2"] = Num(1j)
        del defs["F1"]
        assert expr.parse_statements(self.TEXT).keys() == {"F1", "F3"}
        assert expr.field_statements(self.TEXT) == (first.defs, frozenset({"a", "b", "w"}))

    def test_a_second_load_and_bind_parses_and_generates_nothing(self, monkeypatch):
        doc = {"kind": "expr", "defs": self.TEXT, "params": {"a": 1, "b": 2, "w": 3}}
        times, y = np.linspace(0.5, 1.5, 7), np.array([0.6, 0.8j])
        field, rhs = bind_field(load_field_json(doc))
        field(times)
        rhs(0.5, y)  # compiles the checked code for one time
        plans, compiled = list(expr._PLANS), expr._function_code.cache_info().misses

        def again(*args):
            pytest.fail("a text seen before was tokenized or its code generated again")

        for name in ("_tokenize", "_generate", "_source"):
            monkeypatch.setattr(expr, name, again)
        doc["params"] = {"a": [0.5, -1], "b": -1, "w": 0.25}
        spec = load_field_json(io.StringIO(json.dumps(doc)))
        field, rhs = bind_field(spec)
        assert field(times).view(np.int64).tolist() == \
            np.array([field(t) for t in times]).view(np.int64).tolist()
        rhs(0.5, y)
        assert list(expr._PLANS) == plans
        assert expr._function_code.cache_info().misses == compiled

    @pytest.mark.parametrize("text", ["F1 = 1 +", "F1 = t; F1 = 2", "F4 = t", "F1 = foo(t)",
                                      "F1 = 1..2", "F1 = t $", "F1 = (t"])
    def test_a_bad_text_raises_the_same_error_on_every_call(self, text):
        with pytest.raises(FieldParseError) as uncached:
            expr.field_statements.__wrapped__(text)
        for load in (parse_field_spec, expr.parse_statements,
                     lambda s: load_field_json({"kind": "expr", "defs": s})) * 2:
            with pytest.raises(FieldParseError) as got:
                load(text)
            assert str(got.value) == str(uncached.value)

    def test_samples_keep_their_bits_after_a_cache_clear(self):
        for eid in range(1, 27):
            e = catalog.entry(eid)
            p = e.merged(None)
            times = np.linspace(*e.window_for(p), 101)
            before = load_field_json(_expr_doc(e, p))
            want = field_callable(before)(times)
            expr.field_statements.cache_clear()
            after = load_field_json(_expr_doc(e, p))
            assert after.defs[0][1] is not before.defs[0][1] and after == before
            got = field_callable(after)(times)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), eid

    @pytest.mark.parametrize("eid", range(1, 27))
    def test_an_entry_expr_and_catalog_share_one_plan(self, eid, monkeypatch):
        e = catalog.entry(eid)
        # after a cache_clear the entry keeps its ASTs: take them from the cache
        monkeypatch.delitem(vars(e), "field_defs", raising=False)
        p = e.draw_params(np.random.default_rng([eid, 37]))
        exprs = load_field_json(_expr_doc(e, p))
        catalogs = load_field_json({**_expr_doc(e, p), "kind": "catalog", "defs": eid})
        assert all(a is b for a, b in zip(_nodes(exprs)[0], _nodes(catalogs)[0], strict=True))
        times = np.linspace(*e.window_for(p), 5)
        want = field_callable(exprs)(times)
        plans = list(expr._PLANS)
        got = field_callable(catalogs)(times)
        assert list(expr._PLANS) == plans
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


_names = st.sampled_from(["a", "b", "w", "t", "i", "sin", "F1", "_x1", "a b", ""])
_dsl = st.recursive(
    st.sampled_from(["t", "i", "a", "b", "w", "2", "0.5", "1e-3", "3i", "1.5e2i", "0"]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(" ".join),
        st.tuples(st.sampled_from([*sorted(expr.FUNCTIONS), "foo"]), sub).map(
            lambda x: f"{x[0]}({x[1]})"),
        sub.map(lambda x: f"({x})"), sub.map(lambda x: f"-{x}")),
    max_leaves=8)
_statements = st.lists(
    st.tuples(st.sampled_from(["F1", "F2", "F3", "F3", "F4", "G"]), _dsl).map(" = ".join),
    max_size=4).map("; ".join)
_junk = st.text("F123 =+-*/^()t;abi.e0\n", max_size=30) | st.text(max_size=12)
_number = st.floats(-1e3, 1e3) | st.integers(-5, 5)
_values = st.one_of(
    _number, _number, _number, st.lists(_number, min_size=2, max_size=2),
    st.lists(_number, min_size=2, max_size=2), st.one_of(
        st.integers(), st.floats(), st.just(10**400), st.booleans(), st.text(max_size=3),
        st.lists(st.floats() | st.integers() | st.just(-10**400), max_size=3)))


def _document(kind, defs, params, shape):
    """A document, one in ten without its defs and one in ten with a list
    for its params."""
    doc = {"kind": kind, "defs": defs, "params": params}
    if shape == 8:
        del doc["defs"]
    elif shape == 9:
        doc["params"] = list(params)
    return doc


_documents = st.builds(
    _document, st.sampled_from(["expr"] * 6 + ["catalog", "const", "smooth"]),
    st.one_of(_statements, _statements, _statements, _junk, st.integers(-2, 30),
              st.lists(st.lists(st.floats(), max_size=2), max_size=4)),
    st.dictionaries(_names, _values, max_size=4), st.sampled_from(range(10)))


@given(_documents, st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_document_loads_or_fails_alike_every_time(doc, as_text):
    # a load returns a spec or raises a SpinEqError, the same on every load
    # of one document (repr: equal NaN parameters are equal), and says
    # nothing on stderr
    def load():
        source = io.StringIO(json.dumps(doc)) if as_text else doc
        try:
            return repr(load_field_json(source))
        except SpinEqError as exc:
            return type(exc), str(exc)

    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        first, again = load(), load()
    assert first == again
    assert err.getvalue() == ""
