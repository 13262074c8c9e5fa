"""Field specifications: how F(t) in C^3 is defined, parsed and evaluated.

Three kinds of spec:

* ExprField   — three DSL expression trees over t and named parameters
* CatalogField — one of the 26 exact-solution families by id + parameter map
* ConstField  — a fixed complex 3-vector

The JSON envelope (used by the CLI) is
``{"kind": "expr"|"catalog"|"const", "defs": ..., "params": {name: [re, im]}}``
where "expr" carries a DSL string, "catalog" an entry id, and "const" a
list of three [re, im] pairs.

Loading and parsing a document needs neither numpy nor spinors: a field
the CLI rejects is rejected before either loads.  Evaluation imports them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import expr as ex
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
    "load_field_json",
    "dump_field_json",
]

# abs(z) <= _LIMIT is False for a z that is not finite, too
_LIMIT = ex.SINGULARITY_THRESHOLD


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
    pole raises SingularityError carrying t.  To evaluate one spec at many
    times, bind it once with field_callable and pass it the array of times:
    the samples have the same bits as calling this at each time.
    """
    from .spinors import CVec3
    return CVec3.from_array(field_callable(spec, params)(t))


def field_callable(spec: FieldSpec, params: dict | None = None):
    """Bind a spec to a plain t -> ndarray(3) callable for integrators.

    Expression and catalog fields run their generated code
    (expr.FieldCode), with their parameters bound (``params`` overrides
    the spec's own).

    The callable also takes a 1-D ndarray of n times and returns the (n, 3)
    complex samples, bit for bit those of calling it at each time in turn.
    A pole raises the error of that per-node loop: the first node, and at
    that node the first of F1, F2, F3.
    """
    return bind_field(spec, params)[0]


def bind_field(spec: FieldSpec, params: dict | None = None):
    """(field_callable(spec, params), rhs): rhs(t, y) is the right-hand side
    -1j (sigma.F(t)) y of the spin equation, with the bits of
    -1j * (sigma_dot(field(t)) @ y) and the same SingularityError at a pole.
    Its three components are Python complex from one call of the generated
    code, checked as a field sample is; the 2x2 product stays numpy's
    matmul, since a product in Python arithmetic rounds differently."""
    import numpy as np
    if isinstance(spec, ConstField):
        from .spinors import sigma_dot
        vec = np.array(spec.value, dtype=complex)
        S = sigma_dot(vec)
        return ((lambda t: np.tile(vec, (len(t), 1)) if isinstance(t, np.ndarray) else vec),
                lambda t, y: -1j * (S @ y))
    if isinstance(spec, ExprField):
        nodes = tuple(spec.component(comp) for comp in ("F1", "F2", "F3"))
        merged = dict(spec.params)
    elif isinstance(spec, CatalogField):
        from . import catalog

        e = catalog.entry(spec.entry_id)
        nodes = (e.field_defs["F1"], None, e.field_defs["F3"])
        merged = e.merged(spec.params)
    else:
        raise DomainError(f"not a field spec: {spec!r}")
    if params:
        merged.update(params)
    code = ex.FieldCode(nodes, merged)
    fast, checked = code.fast, code.checked
    # sigma.F, refilled by each call: four stores cost a third of a new array
    S = np.empty((2, 2), dtype=complex)
    s = S.reshape(4)

    def sample(t):
        return code.grid(t) if isinstance(t, np.ndarray) else np.array(code(t))

    def rhs(t, y):
        try:
            f1, f2, f3 = fast(complex(t))
            ok = abs(f1) <= _LIMIT and abs(f2) <= _LIMIT and abs(f3) <= _LIMIT
        except (ArithmeticError, ValueError):
            ok = False
        if not ok:  # not finite, above the limit or raised: the checked replay raises
            f1, f2, f3 = checked(t)
        s[0] = f3
        s[1] = f1 - 1j * f2
        s[2] = f1 + 1j * f2
        s[3] = -f3
        return -1j * (S @ y)

    return sample, rhs


def split_kg(F: CVec3):
    """Real and imaginary parts K, G of the field, K + iG = F exactly."""
    import numpy as np
    from .spinors import CVec3
    a = F.as_array() if isinstance(F, CVec3) else np.asarray(F, dtype=complex)
    return a.real.copy(), a.imag.copy()


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _complex_from_pair(v):
    if _is_number(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)):
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
        except UnicodeDecodeError as exc:
            raise FieldParseError(f"field document is not UTF-8 text: {exc}") from None
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
        spec = parse_field_spec(defs)
        missing = spec.free_parameters() - set(params)
        if missing:
            raise FieldParseError(f"missing parameter values for {sorted(missing)}")
        return ExprField(spec.defs, params)
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
