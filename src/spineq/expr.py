"""Expression DSL for field components.

Grammar (statements separated by ';', trailing ';' allowed):

    stmt   :=  ('F1' | 'F2' | 'F3') '=' expr
    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  ('+' | '-') unary | power
    power  :=  atom ['^' unary]                      (right-associative)
    atom   :=  NUMBER | NUMBER 'i' | 'i' | 't' | IDENT
             | FUNC '(' expr ')' | '(' expr ')'

Functions: sin cos tan cot sinh cosh tanh coth exp ln sqrt.  'i' is the
imaginary unit, 't' the time variable; every other identifier is a free
parameter supplied at evaluation time.

ASTs compile to straight-line Python (FieldCode), every number and
parameter bound as a generated name, so no input text reaches the source.
One code object runs on a time t, as a Python complex, with cmath bound,
and on an object array of times with np.frompyfunc's cmath, where numpy
applies CPython's complex operators element by element: each value has the
bits of the scalar call.  A failure is replayed through a checked variant
that names the failing operator and t.

Parsing and the scalar code need the standard library alone; numpy and
numutil load on the first grid call, so that a field document the CLI
rejects is rejected before numpy loads.
"""

from __future__ import annotations

import cmath
import functools
import sys
import types
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FieldParseError, SingularityError

__all__ = ["ExprNode", "Num", "Var", "Call", "BinOp", "Neg", "parse_expr",
           "parse_statements", "print_expr", "FieldCode", "compile_expr", "eval_expr",
           "free_parameters", "FUNCTIONS"]


FUNCTIONS = {"sin": cmath.sin, "cos": cmath.cos, "tan": cmath.tan,
             "cot": lambda z: cmath.cos(z) / cmath.sin(z),
             "sinh": cmath.sinh, "cosh": cmath.cosh, "tanh": cmath.tanh,
             "coth": lambda z: cmath.cosh(z) / cmath.sinh(z),
             "exp": cmath.exp, "ln": cmath.log, "sqrt": cmath.sqrt}

# magnitudes above this are treated as a pole hit during evaluation
SINGULARITY_THRESHOLD = 1e12

_PY_OPS = {"+": "+", "-": "-", "*": "*", "/": "/", "^": "**"}  # DSL -> Python


class ExprNode:
    pass


@dataclass(frozen=True)
class Num(ExprNode):
    value: complex


@dataclass(frozen=True)
class Var(ExprNode):
    name: str


@dataclass(frozen=True)
class Call(ExprNode):
    fn: str
    arg: ExprNode


@dataclass(frozen=True)
class BinOp(ExprNode):
    op: str
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Neg(ExprNode):
    arg: ExprNode


class _Token(NamedTuple):
    kind: str  # NUM IMAG IDENT OP LPAREN RPAREN EQ SEMI EOF
    text: str
    line: int
    col: int


_PUNCTUATION = {"(": "LPAREN", ")": "RPAREN", "=": "EQ", ";": "SEMI",
                **dict.fromkeys("+-*/^", "OP")}


def _tokenize(text: str) -> list[_Token]:
    toks, i, line, col, n = [], 0, 1, 1, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and j + 1 < n and (
                text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())
            ):
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise FieldParseError(f"bad number literal '{lit}'", line, col)
            kind = "IMAG" if j < n and text[j] == "i" else "NUM"
            j += kind == "IMAG"
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind, lit = "IDENT", text[i:j]
        elif ch in _PUNCTUATION:
            kind, lit, j = _PUNCTUATION[ch], ch, i + 1
        else:
            raise FieldParseError(f"unexpected character '{ch}'", line, col)
        toks.append(_Token(kind, lit, line, col))
        col += j - i
        i = j
    toks.append(_Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise FieldParseError(f"expected {want}, got '{tok.text or 'end of input'}'",
                                  tok.line, tok.col)
        return self.next()

    def parse_expr(self) -> ExprNode:
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> ExprNode:
        node = self.parse_unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> ExprNode:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.next()
            arg = self.parse_unary()
            if tok.text == "+":
                return arg
            # canonicalize: a negated literal is just a negative literal
            if isinstance(arg, Num):
                return Num(-arg.value)
            return Neg(arg)
        return self.parse_power()

    def parse_power(self) -> ExprNode:
        base = self.parse_atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.next()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> ExprNode:
        tok = self.next()
        if tok.kind == "NUM":
            return Num(complex(float(tok.text)))
        if tok.kind == "IMAG":
            return Num(complex(0.0, float(tok.text)))
        if tok.kind == "IDENT":
            name = tok.text
            if name in FUNCTIONS:
                self.expect("LPAREN")
                arg = self.parse_expr()
                self.expect("RPAREN")
                return Call(name, arg)
            if name == "i":
                return Num(1j)
            if self.peek().kind == "LPAREN":
                raise FieldParseError(f"unknown function '{name}'", tok.line, tok.col)
            return Var(name)  # 't' or a free parameter
        if tok.kind == "LPAREN":
            node = self.parse_expr()
            self.expect("RPAREN")
            return node
        raise FieldParseError(f"unexpected '{tok.text or 'end of input'}'", tok.line, tok.col)


def parse_expr(text: str) -> ExprNode:
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise FieldParseError(f"trailing input '{tok.text}'", tok.line, tok.col)
    return node


def parse_statements(text: str) -> dict[str, ExprNode]:
    """Parse 'F1|F2|F3 = expr' statements into a component -> AST map."""
    parser = _Parser(_tokenize(text))
    defs: dict[str, ExprNode] = {}
    while (tok := parser.peek()).kind != "EOF":
        if tok.kind == "SEMI":
            parser.next()
            continue
        name_tok = parser.expect("IDENT")
        if name_tok.text not in ("F1", "F2", "F3"):
            raise FieldParseError(
                f"expected component F1, F2 or F3, got '{name_tok.text}'",
                name_tok.line, name_tok.col)
        if name_tok.text in defs:
            raise FieldParseError(f"duplicate definition of {name_tok.text}",
                                  name_tok.line, name_tok.col)
        parser.expect("EQ")
        defs[name_tok.text] = parser.parse_expr()
        tok = parser.peek()
        if tok.kind == "SEMI":
            parser.next()
        elif tok.kind != "EOF":
            raise FieldParseError(f"trailing input '{tok.text}'", tok.line, tok.col)
    return defs


def _fmt_complex(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    if value.real == 0.0:
        return repr(value.imag) + "i"
    return f"({value.real!r} + {value.imag!r}i)"


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def print_expr(node: ExprNode) -> str:
    """Render an AST to DSL text; parse(print_expr(x)) reproduces x."""
    def render(n, parent_prec):
        if isinstance(n, Num):
            s = _fmt_complex(n.value)
            neg = s.startswith("-")
            return f"({s})" if neg and parent_prec > 1 else s
        if isinstance(n, Var):
            return n.name
        if isinstance(n, Call):
            return f"{n.fn}({render(n.arg, 0)})"
        if isinstance(n, Neg):
            inner = render(n.arg, 3)
            return f"(-{inner})" if parent_prec > 1 else f"-{inner}"
        if isinstance(n, BinOp):
            prec = _PREC[n.op]
            left = render(n.left, prec if n.op != "^" else prec + 1)
            right = render(n.right, prec + 1 if n.op != "^" else prec)
            s = f"{left} {n.op} {right}"
            return f"({s})" if prec < parent_prec or (parent_prec == prec and n.op in "-/") else s
        raise TypeError(f"not an ExprNode: {n!r}")

    return render(node, 0)


def free_parameters(node: ExprNode) -> set[str]:
    """Names of free parameters (identifiers other than 't')."""
    return {leaf.name for leaf in _generate((node,))[3] if isinstance(leaf, Var)}


def _generate(nodes):
    """The ops of a tuple of ASTs (None for a zero) in the grammar's order:
    (expression, message) pairs, the k-th assigned to _k, the message what
    its failure raises (None: a negation cannot fail); the names of the
    values, the j-th complete after ends[j] ops; and the leaves _c0, _c1,
    ... stand for, a number or a parameter's Var."""
    ops, leaves, slots, results, ends = [], [], {}, [], []
    for node in nodes:
        results.append(_walk(Num(0j) if node is None else node, ops, leaves, slots))
        ends.append(len(ops))
    return ops, results, ends, leaves


def _walk(n, ops, leaves, slots):
    """The name of n's value, its ops appended.  (Not a closure: one that
    calls itself is a cycle, freed only by the cyclic collector.)"""
    if isinstance(n, Var) and n.name == "t":
        return "t"
    if isinstance(n, (Num, Var)):
        key = n.name if isinstance(n, Var) else len(leaves)
        if key not in slots:
            slots[key] = f"_c{len(leaves)}"
            leaves.append(n if isinstance(n, Var) else n.value)
        return slots[key]
    if isinstance(n, Neg):
        op = "-" + _walk(n.arg, ops, leaves, slots), None
    elif isinstance(n, Call) and n.fn in FUNCTIONS:
        op = f"{n.fn}({_walk(n.arg, ops, leaves, slots)})", f"{n.fn} pole"
    elif isinstance(n, BinOp) and n.op in _PY_OPS:
        left = _walk(n.left, ops, leaves, slots)
        right = _walk(n.right, ops, leaves, slots)
        op = f"{left} {_PY_OPS[n.op]} {right}", f"'{n.op}' overflow/pole"
    else:
        raise TypeError(f"not an ExprNode: {n!r}")
    ops.append(op)
    return f"_{len(ops) - 1}"


def _source(ops, results, ends, checked=False):
    """def f(t) doing the ops; checked: def f(at), on t = complex(at), with
    a failure of an op or a value raising SingularityError naming it and at."""
    lines, done = ["def f(at):", "    t = complex(at)"] if checked else ["def f(t):"], 0
    for result, end in zip(results, ends):
        for k, (expr, what) in enumerate(ops[done:end], done):
            if checked and what:
                lines += ["    try:", f"        _{k} = {expr}", "    except _FAILS:",
                          f"        _pole({what!r}, at)"]
            else:
                lines.append(f"    _{k} = {expr}")
        lines += [f"    if not isfinite({result}) or abs({result}) > _LIMIT:",
                  "        _pole('field component singular', at)"] if checked else []
        done = end
    return "\n".join(lines + [f"    return {', '.join(results)},"])


@functools.lru_cache(maxsize=256)
def _function_code(source):
    """A generated function's code object: a compile costs about 0.2 ms,
    and fields of one shape with other numbers share their source."""
    return compile(source, "<spineq.expr generated>", "exec").co_consts[0]


def _pole(what, t):
    raise SingularityError(f"{what} at t = {t}", t=t) from None


# the globals of generated code besides its _c names: cmath's functions for
# one time, np.frompyfunc's for an object array of times (_grid_globals),
# and the names the checked variant adds
_SCALAR = {"__builtins__": {}, **FUNCTIONS}
_CHECKED = {**_SCALAR, "complex": complex, "abs": abs, "isfinite": cmath.isfinite,
            "_LIMIT": SINGULARITY_THRESHOLD, "_pole": _pole,
            "_FAILS": (ValueError, OverflowError, ZeroDivisionError)}

@functools.cache
def _grid_globals():
    import numpy as np
    return {**_SCALAR, **{name: np.frompyfunc(fn, 1, 1) for name, fn in FUNCTIONS.items()}}


def _is_ndarray(t) -> bool:
    # numpy is loaded if an ndarray exists, so t is none while it is not
    np = sys.modules.get("numpy")
    return np is not None and isinstance(t, np.ndarray)


# ids of ASTs -> (the ASTs, keeping the ids theirs, numbers and parameter
# names by _c name, code object)
_PLANS = {}


def _plan(nodes):
    key = tuple(map(id, nodes))
    if key not in _PLANS:
        ops, results, ends, leaves = _generate(nodes)
        names = [f"_c{k}" for k in range(len(leaves))]
        if len(_PLANS) == 128:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = (nodes, {c: v for c, v in zip(names, leaves) if not isinstance(v, Var)},
                       [(c, v.name) for c, v in zip(names, leaves) if isinstance(v, Var)],
                       _function_code(_source(ops, results, ends)))
    return _PLANS[key]


class FieldCode:
    """The code of a tuple of ASTs (None for a zero), params bound.
    fast(t), t a Python complex, returns the values unchecked.  Called at t,
    it returns them if each is finite and at most SINGULARITY_THRESHOLD in
    modulus, else checked(t) raises the first failure's SingularityError.
    grid(times) returns the (n, len(nodes)) values at a 1-D ndarray of
    times, bit for bit the calls at each time, or the first failure."""

    def __init__(self, nodes, params):
        self._nodes, numbers, names, self._code = _plan(tuple(nodes))
        self._consts = dict(numbers)
        for const, name in names:
            try:
                self._consts[const] = complex(params[name])
            except KeyError:
                raise FieldParseError(f"unknown identifier '{name}'") from None
        self.fast = types.FunctionType(self._code, {**_SCALAR, **self._consts})

    def __call__(self, t):
        try:
            values = self.fast(complex(t))
            if all(cmath.isfinite(v) and abs(v) <= SINGULARITY_THRESHOLD for v in values):
                return values
        except (ArithmeticError, ValueError):
            pass
        return self.checked(t)

    def checked(self, t):
        code = _function_code(_source(*_generate(self._nodes)[:3], checked=True))
        return types.FunctionType(code, {**_CHECKED, **self._consts})(t)

    def grid(self, times):
        import numpy as np

        from .numutil import grid_or_replay
        return grid_or_replay(self._array_call, lambda t: np.array(self(t)), times,
                              ok=lambda v: np.abs(v) <= SINGULARITY_THRESHOLD)

    def _array_call(self, times):
        # numpy applies CPython's complex operators and cmath element by
        # element to the object array of Python complex; a constant broadcasts
        import numpy as np
        fn = types.FunctionType(self._code, {**_grid_globals(), **self._consts})
        out = np.empty((len(times), len(self._nodes)), dtype=complex)
        for k, v in enumerate(fn(np.array(times.astype(complex).tolist(), dtype=object))):
            out[:, k] = v
        return out


def compile_expr(node: ExprNode, params: dict[str, complex]):
    """Bind an AST's parameters once (a missing one raises FieldParseError)
    and return its FieldCode as t -> complex, raising SingularityError at a
    pole; given a 1-D ndarray of times it returns their values, bit for bit
    the calls at each time, or raises the first failing time's error."""
    code = FieldCode((node,), params)
    return lambda t: code.grid(t)[:, 0] if _is_ndarray(t) else code(t)[0]


def eval_expr(node: ExprNode, t: float, params: dict[str, complex]) -> complex:
    """Evaluate an AST at time t; poles surface as SingularityError."""
    return FieldCode((node,), params)(t)[0]
