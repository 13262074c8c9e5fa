"""Field specifications: how F(t) in C^3 is defined, parsed and evaluated.

Three kinds of spec:

* ExprField   — three DSL expression trees over t and named parameters
* CatalogField — one of the 26 exact-solution families by id + parameter map
* ConstField  — a fixed complex 3-vector

The JSON envelope (used by the CLI) is
``{"kind": "expr"|"catalog"|"const", "defs": ..., "params": {name: [re, im]}}``
where "expr" carries a DSL string, "catalog" an entry id, and "const" a
list of three [re, im] pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import DomainError, FieldParseError
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
    "load_field_json",
    "dump_field_json",
]


@dataclass(frozen=True)
class ConstField:
    value: tuple[complex, complex, complex]

    def poles(self, window):
        return []


@dataclass(frozen=True)
class ExprField:
    defs: tuple[tuple[str, ex.ExprNode], ...]  # ("F1", ast), ... missing -> 0
    params: dict[str, complex] = field(default_factory=dict)

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

    def poles(self, window):
        # expression fields detect poles at evaluation time only
        return []


@dataclass(frozen=True)
class CatalogField:
    entry_id: int
    params: dict[str, complex] = field(default_factory=dict)

    def poles(self, window):
        from . import catalog

        return catalog.entry(self.entry_id).poles(self.merged_params(), window)

    def merged_params(self):
        from . import catalog

        merged = dict(catalog.entry(self.entry_id).default_params)
        merged.update(self.params)
        return merged


FieldSpec = ConstField | ExprField | CatalogField


def parse_field_spec(text: str) -> ExprField:
    """Parse DSL statements into an ExprField; omitted components are zero."""
    defs = ex.parse_statements(text)
    ordered = tuple((comp, defs[comp]) for comp in ("F1", "F2", "F3") if comp in defs)
    return ExprField(ordered)


def eval_field(spec: FieldSpec, t: float, params: dict | None = None) -> CVec3:
    """Evaluate a field spec at time t.

    ``params`` supplies (or overrides) named parameters; evaluation at a
    pole raises SingularityError carrying t.
    """
    if isinstance(spec, ConstField):
        return CVec3(*spec.value)
    if isinstance(spec, ExprField):
        merged = dict(spec.params)
        if params:
            merged.update(params)
        out = []
        for comp in ("F1", "F2", "F3"):
            node = spec.component(comp)
            out.append(ex.eval_expr(node, t, merged) if node is not None else 0j)
        return CVec3(*out)
    if isinstance(spec, CatalogField):
        from . import catalog

        merged = spec.merged_params()
        if params:
            merged.update(params)
        f1, f3 = catalog.entry(spec.entry_id).field_components(t, merged)
        return CVec3(f1, 0j, f3)
    raise DomainError(f"not a field spec: {spec!r}")


def field_callable(spec: FieldSpec, params: dict | None = None):
    """Bind a spec to a plain t -> ndarray(3) callable for integrators."""
    if isinstance(spec, ConstField):
        vec = np.array(spec.value, dtype=complex)
        return lambda t: vec
    return lambda t: eval_field(spec, t, params).as_array()


def split_kg(F: CVec3):
    """Real and imaginary parts K, G of the field, K + iG = F exactly."""
    a = F.as_array() if isinstance(F, CVec3) else np.asarray(F, dtype=complex)
    return a.real.copy(), a.imag.copy()


def _complex_from_pair(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise FieldParseError(f"bad complex value {v!r}; expected number or [re, im]")


def _pair(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def load_field_json(source) -> FieldSpec:
    """Load a field spec from a JSON file path, file object, or dict."""
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
    if not isinstance(doc, dict):
        raise FieldParseError("a field document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("const", "expr", "catalog"):
        raise FieldParseError(f"unknown field kind {kind!r}")
    if "defs" not in doc:
        raise FieldParseError(f"{kind} field document has no 'defs'")
    params = {k: _complex_from_pair(v) for k, v in doc.get("params", {}).items()}
    if kind == "const":
        defs = doc["defs"]
        if len(defs) != 3:
            raise FieldParseError("const field needs exactly three components")
        return ConstField(tuple(_complex_from_pair(v) for v in defs))
    if kind == "expr":
        spec = parse_field_spec(doc["defs"])
        missing = spec.free_parameters() - set(params)
        if missing:
            raise FieldParseError(f"missing parameter values for {sorted(missing)}")
        return ExprField(spec.defs, params)
    entry_id = int(doc["defs"])
    from . import catalog

    catalog.entry(entry_id)  # validates the id
    return CatalogField(entry_id, params)


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
