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

A compiled expression takes one time t or a 1-D ndarray of times.  On an
array the same AST runs on an object array of Python complex, so numpy
applies CPython's complex operators and cmath element by element and each
value has the bits of the scalar call.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass

import numpy as np

from .errors import FieldParseError, SingularityError
from .numutil import grid_or_replay

__all__ = ["ExprNode", "Num", "Var", "Call", "BinOp", "Neg", "parse_expr",
           "parse_statements", "print_expr", "compile_expr", "eval_expr",
           "free_parameters", "FUNCTIONS"]


def _cot(z):
    return cmath.cos(z) / cmath.sin(z)


def _coth(z):
    return cmath.cosh(z) / cmath.sinh(z)


FUNCTIONS = {
    "sin": cmath.sin,
    "cos": cmath.cos,
    "tan": cmath.tan,
    "cot": _cot,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "tanh": cmath.tanh,
    "coth": _coth,
    "exp": cmath.exp,
    "ln": cmath.log,
    "sqrt": cmath.sqrt,
}

_RESERVED = set(FUNCTIONS) | {"i", "t"}

# magnitudes above this are treated as a pole hit during evaluation
SINGULARITY_THRESHOLD = 1e12

_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}

# the leaves of a compilation: how t enters, and the function table.  A grid
# receives its times already as an object array of Python complex.
_SCALAR_LEAVES = (complex, FUNCTIONS)
_GRID_LEAVES = (lambda t: t,
                {name: np.frompyfunc(fn, 1, 1) for name, fn in FUNCTIONS.items()})


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


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM IMAG IDENT OP LPAREN RPAREN EQ SEMI EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
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
                raise FieldParseError(f"bad number literal '{lit}'", line, start_col)
            if j < n and text[j] == "i":
                toks.append(_Token("IMAG", lit, line, start_col))
                j += 1
            else:
                toks.append(_Token("NUM", lit, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            toks.append(_Token("OP", ch, line, start_col))
        elif ch == "(":
            toks.append(_Token("LPAREN", ch, line, start_col))
        elif ch == ")":
            toks.append(_Token("RPAREN", ch, line, start_col))
        elif ch == "=":
            toks.append(_Token("EQ", ch, line, start_col))
        elif ch == ";":
            toks.append(_Token("SEMI", ch, line, start_col))
        else:
            raise FieldParseError(f"unexpected character '{ch}'", line, start_col)
        i += 1
        col += 1
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
    while True:
        tok = parser.peek()
        if tok.kind == "EOF":
            break
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
    out: set[str] = set()

    def walk(n):
        if isinstance(n, Var):
            if n.name != "t":
                out.add(n.name)
        elif isinstance(n, Call):
            walk(n.arg)
        elif isinstance(n, Neg):
            walk(n.arg)
        elif isinstance(n, BinOp):
            walk(n.left)
            walk(n.right)

    walk(node)
    return out


def _compile(node: ExprNode, params: dict[str, complex], leaves=_SCALAR_LEAVES):
    """Closure t -> complex for one subtree, with its parameters bound."""
    t_leaf, functions = leaves
    if isinstance(node, Num):
        value = node.value
        return lambda t: value
    if isinstance(node, Var):
        if node.name == "t":
            return t_leaf
        try:
            value = complex(params[node.name])
        except KeyError:
            raise FieldParseError(f"unknown identifier '{node.name}'") from None
        return lambda t: value
    if isinstance(node, Neg):
        arg = _compile(node.arg, params, leaves)
        return lambda t: -arg(t)
    if isinstance(node, Call):
        fn, name, arg = functions[node.fn], node.fn, _compile(node.arg, params, leaves)

        def call(t):
            x = arg(t)
            try:
                return fn(x)
            except (ValueError, OverflowError, ZeroDivisionError):
                raise SingularityError(f"{name} pole at t = {t}", t=t) from None

        return call
    if isinstance(node, BinOp):
        op, sym = _BINOPS[node.op], node.op
        left, right = _compile(node.left, params, leaves), _compile(node.right, params, leaves)

        def binop(t):
            x = left(t)
            y = right(t)
            try:
                return op(x, y)
            except (ZeroDivisionError, OverflowError, ValueError):
                raise SingularityError(f"'{sym}' overflow/pole at t = {t}", t=t) from None

        return binop
    raise TypeError(f"not an ExprNode: {node!r}")


def compile_expr(node: ExprNode, params: dict[str, complex]):
    """Bind an AST's parameters once and return a function t -> complex.

    Every node becomes a closure doing the complex arithmetic of the
    grammar, so repeated evaluation does not walk the tree again.  An
    identifier missing from params raises FieldParseError here; a pole
    raises SingularityError carrying t when the function is called.

    The function also takes a 1-D ndarray of times and returns the complex
    ndarray of values, with the bits of calling it at each time in turn; the
    AST is compiled for arrays on the first such call.  If the array
    evaluation raises, or a value is not finite or above
    SINGULARITY_THRESHOLD, the times are replayed one by one, so the error
    is the one the first failing time raises.
    """
    fn = _compile(node, params)
    grid = None
    ndarray = np.ndarray  # a cell, not a global: value is on the solver's hot path

    # no closure here refers to itself or to one that refers back, so that a
    # binding is freed as soon as it is dropped, not by the cyclic collector
    def scalar(t):
        v = fn(t)
        if not cmath.isfinite(v) or abs(v) > SINGULARITY_THRESHOLD:
            raise SingularityError(f"field component singular at t = {t}", t=t)
        return v

    def value(t):
        return on_grid(t) if isinstance(t, ndarray) else scalar(t)

    def array_call(times):
        out = np.empty(times.shape, dtype=complex)  # a constant broadcasts
        out[...] = grid(np.array(times.astype(complex).tolist(), dtype=object))
        return out

    def on_grid(times):
        nonlocal grid
        if grid is None:
            grid = _compile(node, params, _GRID_LEAVES)
        # abs is NaN or inf for every value that is not finite
        return grid_or_replay(array_call, scalar, times,
                              ok=lambda v: np.abs(v) <= SINGULARITY_THRESHOLD)

    return value


def eval_expr(node: ExprNode, t: float, params: dict[str, complex]) -> complex:
    """Evaluate an AST at time t; poles surface as SingularityError."""
    return compile_expr(node, params)(t)
