"""Field specifications: how F(t) in C^3 is defined, parsed and evaluated.

Three kinds of spec:

* ExprField   — three DSL expression trees over t and named parameters
* CatalogField — one of the 26 exact-solution families by id + parameter map
* ConstField  — a fixed complex 3-vector

The JSON envelope (used by the CLI) is
``{"kind": "expr"|"catalog"|"const", "defs": ..., "params": {name: [re, im]}}``
where "expr" carries a DSL string, "catalog" an entry id, and "const" a
list of three [re, im] pairs.

A field's parameters are its spec's: an ExprField's ``params``, or a
CatalogField's over its entry's defaults.  Evaluate a field with other
values through another spec, ``ExprField(spec.defs, p)`` or
``CatalogField(spec.entry_id, p)``.

Each DSL text is parsed once per process, in a bounded cache of the last
128 texts (expr.field_statements).  A document loaded again, and a catalog
entry whose field_dsl it carries, take the same ASTs, and so the plan and
code expr.FieldCode made for them: binding new parameters to a text seen
before builds only a dict of its constants.

Loading and parsing a document and checking a window for the poles its
ASTs declare (check_poles) need neither numpy nor spinors: a field the CLI
rejects is rejected before either loads.  Evaluation imports them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from . import expr as ex
from ._numbers import default_factory, record
from .errors import DomainError, FieldParseError

if TYPE_CHECKING:
    from .spinors import CVec3

__all__ = [
    "ConstField",
    "ExprField",
    "CatalogField",
    "FieldSpec",
    "parse_field_spec",
    "eval_field",
    "split_kg",
    "field_callable",
    "bind_field",
    "check_poles",
    "load_field_json",
    "dump_field_json",
]


@record
class ConstField:
    value: tuple[complex, complex, complex]


@record
class ExprField:
    defs: tuple[tuple[str, ex.ExprNode], ...]  # ("F1", ast), ... missing -> 0
    params: dict[str, complex] = default_factory(dict)

    def component(self, name):
        for comp, node in self.defs:
            if comp == name:
                return node
        return None

    def free_parameters(self) -> set[str]:
        out = set()
        for _, node in self.defs:
            out |= ex.free_parameters(node)
        return out

    def text(self) -> str:
        return "; ".join(f"{comp} = {ex.print_expr(node)}" for comp, node in self.defs)


@record
class CatalogField:
    entry_id: int
    params: dict[str, complex] = default_factory(dict)


FieldSpec = ConstField | ExprField | CatalogField


def parse_field_spec(text: str) -> ExprField:
    """Parse DSL statements into an ExprField; omitted components are zero.
    The ASTs are expr.field_statements(text)'s, parsed once per text."""
    return ExprField(ex.field_statements(text)[0])


def eval_field(spec: FieldSpec, t: float) -> CVec3:
    """Evaluate a field spec at time t.

    Evaluation at a pole raises SingularityError carrying t.  To evaluate
    one spec at many times, bind it once with field_callable and pass it the
    array of times: the samples have the same bits as calling this at each
    time.
    """
    from .spinors import CVec3
    return CVec3.from_array(field_callable(spec)(t))


def field_callable(spec: FieldSpec):
    """Bind a spec to a plain t -> ndarray(3) callable for integrators.

    Every spec runs its generated code (expr.FieldCode), a constant one as
    three numbers, with its spec's parameters bound.

    The callable also takes a 1-D ndarray of n times and returns the (n, 3)
    complex samples, bit for bit those of calling it at each time in turn.
    A pole raises the error of that per-node loop: the first node, and at
    that node the first of F1, F2, F3.
    """
    return ex.FieldCode(*_nodes(spec)).sample


def bind_field(spec: FieldSpec):
    """(field_callable(spec), rhs): rhs(t, y) is the right-hand side
    -1j (sigma.F(t)) y of the spin equation, with the bits of
    -1j * (sigma_dot(field(t)) @ y) and the same SingularityError at a pole.
    Its three components are Python complex from one call of the field's
    checked function for one time, expr.FieldCode.scalar, compiled here
    (a field_callable that samples only grids never compiles it).  The 2x2
    product is numpy's, as S.dot(y): it has the bits of S @ y, from the same
    BLAS kernel at half the call cost; a product in Python arithmetic rounds
    differently.  The factor -1j is a 0-d complex array: the value and the
    ufunc loop numpy gives the Python -1j, without converting it on every
    call."""
    import numpy as np
    code = ex.FieldCode(*_nodes(spec))
    field = code.scalar
    # sigma.F, refilled by each call: four stores cost a third of a new array
    S = np.empty((2, 2), dtype=complex)
    s = S.reshape(4)
    minus_i = np.array(-1j)

    def rhs(t, y):
        f1, f2, f3 = field(t)
        s[0] = f3
        s[1] = f1 - 1j * f2
        s[2] = f1 + 1j * f2
        s[3] = -f3
        return minus_i * S.dot(y)

    return code.sample, rhs


def _nodes(spec):
    """(F1, F2, F3) of a spec as ASTs (None for a zero) and their parameters:
    an entry's defaults, then the spec's own."""
    if isinstance(spec, ConstField):
        return tuple(ex.Num(complex(v)) for v in spec.value), {}
    if isinstance(spec, ExprField):
        return tuple(spec.component(comp) for comp in ("F1", "F2", "F3")), spec.params
    if isinstance(spec, CatalogField):
        from . import catalog

        e = catalog.entry(spec.entry_id)
        return (e.field_defs["F1"], None, e.field_defs["F3"]), e.merged(spec.params)
    raise DomainError(f"not a field spec: {spec!r}")


def check_poles(spec: FieldSpec, window) -> None:
    """Raise DomainError if the window (t0, t1), floats, holds a pole that the
    field's ASTs declare (expr.poles) with the parameters bind_field binds."""
    hits = ex.poles(*_nodes(spec), window)
    if hits:
        raise DomainError(
            f"window [{window[0]}, {window[1]}] contains declared field poles at {hits}")


def split_kg(F: CVec3):
    """Real and imaginary parts K, G of the field, K + iG = F exactly."""
    import numpy as np
    from .spinors import CVec3
    a = F.as_array() if isinstance(F, CVec3) else np.asarray(F, dtype=complex)
    return a.real.copy(), a.imag.copy()


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _complex_from_pair(v):
    try:
        if _is_number(v):
            return complex(v)
        if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)):
            return complex(v[0], v[1])
    except OverflowError:  # an integer past the double range, too long to echo
        raise FieldParseError("a complex value's integer is past the double range") from None
    raise FieldParseError(f"bad complex value {v!r}; expected number or [re, im]")


def _pair(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def load_field_json(source) -> FieldSpec:
    """Load a field spec from a JSON file path, file object, or dict.  An
    expr document's params must be its text's free parameters, no fewer and
    no more: a name the text does not use ('i', the imaginary unit, or a
    misspelling) raises FieldParseError, as an unknown name of a catalog
    document raises DomainError."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            if hasattr(source, "read"):
                doc = json.load(source)
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FieldParseError(f"field document is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise FieldParseError(f"field document is not UTF-8 text: {exc}") from None
        except ValueError as exc:  # int() refuses an integer of over 4300 digits
            raise FieldParseError(f"field document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FieldParseError("a field document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("const", "expr", "catalog"):
        raise FieldParseError(f"unknown field kind {kind!r}")
    if "defs" not in doc:
        raise FieldParseError(f"{kind} field document has no 'defs'")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise FieldParseError("'params' must be a JSON object of name: value")
    params = {k: _complex_from_pair(v) for k, v in params.items()}
    defs = doc["defs"]
    if kind == "const":
        if not isinstance(defs, (list, tuple)) or len(defs) != 3:
            raise FieldParseError("const field needs a list of exactly three components")
        return ConstField(tuple(_complex_from_pair(v) for v in defs))
    if kind == "expr":
        if not isinstance(defs, str):
            raise FieldParseError("expr field needs its 'defs' as a DSL string")
        defs, free = ex.field_statements(defs)
        if "t" in params:
            raise FieldParseError("'t' is the time variable and takes no parameter value")
        missing = free - params.keys()
        if missing:
            raise FieldParseError(f"missing parameter values for {sorted(missing)}")
        unused = params.keys() - free
        if unused:
            raise FieldParseError(f"the field text does not take {sorted(unused)}; "
                                  f"it takes {sorted(free)}")
        return ExprField(defs, params)
    if not isinstance(defs, int) or isinstance(defs, bool):
        raise FieldParseError(f"catalog field needs an integer entry id, got {defs!r}")
    from . import catalog

    catalog.entry(defs)  # validates the id
    return CatalogField(defs, params)


def dump_field_json(spec: FieldSpec) -> dict:
    if isinstance(spec, ConstField):
        return {"kind": "const", "defs": [_pair(v) for v in spec.value]}
    if isinstance(spec, ExprField):
        return {
            "kind": "expr",
            "defs": spec.text(),
            "params": {k: _pair(v) for k, v in spec.params.items()},
        }
    if isinstance(spec, CatalogField):
        return {
            "kind": "catalog",
            "defs": spec.entry_id,
            "params": {k: _pair(v) for k, v in spec.params.items()},
        }
    raise DomainError(f"not a field spec: {spec!r}")
