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
parameter supplied at evaluation time.  An expression nests at most
MAX_DEPTH levels, in its text and in its AST; a deeper one raises
FieldParseError.

ASTs compile to straight-line Python (FieldCode), one assignment per
distinct operation: a subtree that recurs is computed once, and cot and
coth are the quotients cos/sin and cosh/sinh, sharing those factors.  Every
number and parameter is bound as a generated name, so no input text
reaches the source.
One checked function runs at a time t: a failing operation or a value
not finite or above SINGULARITY_THRESHOLD raises, naming the operator and
t.  The same code unchecked runs on a grid of times, each value a _Pair of
float64 parts (re, im), t the pair (times, 0.0): +, - and * take CPython's
formulas on the parts and / a transcription of its _Py_c_quot, each float
operation one numpy operation, so each element has the bits of the call at
its time; an operation on constants alone stays a Python complex.  cmath's
functions and ^ run CPython's own code on the elements as Python complex,
each pair converted once however many of them take it.

Parsing and the scalar code need the standard library alone; numpy and
numutil load on the first grid call, so that a field document the CLI
rejects is rejected before numpy loads.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import struct
import sys
import types
from typing import NamedTuple

from ._numbers import record
from .errors import DomainError, FieldParseError, SingularityError

__all__ = ["ExprNode", "Num", "Var", "Call", "BinOp", "Neg", "parse_expr",
           "parse_statements", "field_statements", "print_expr", "FieldCode",
           "compile_expr", "eval_expr", "free_parameters", "poles", "FUNCTIONS"]


FUNCTIONS = {"sin": cmath.sin, "cos": cmath.cos, "tan": cmath.tan,
             "cot": lambda z: cmath.cos(z) / cmath.sin(z),
             "sinh": cmath.sinh, "cosh": cmath.cosh, "tanh": cmath.tanh,
             "coth": lambda z: cmath.cosh(z) / cmath.sinh(z),
             "exp": cmath.exp, "ln": cmath.log, "sqrt": cmath.sqrt}

# magnitudes above this are treated as a pole hit during evaluation
SINGULARITY_THRESHOLD = 1e12

_PY_OPS = {"+": "+", "-": "-", "*": "*", "/": "/", "^": "**"}  # DSL -> Python

# the number of field texts whose ASTs, and of AST tuples whose plans, are kept
_CACHE_SIZE = 128

# the deepest an expression may nest, counted both in its text (parentheses,
# calls, signs and powers, one parser level each) and in its AST (a sum of n
# terms is n deep): the parser and the walkers of an AST (_walk, print_expr,
# _affine) recurse once per level, and past about 197 levels Python's stack
# runs out
MAX_DEPTH = 100


class ExprNode:
    pass


@record
class Num(ExprNode):
    value: complex


@record
class Var(ExprNode):
    name: str


@record
class Call(ExprNode):
    fn: str
    arg: ExprNode


@record
class BinOp(ExprNode):
    op: str
    left: ExprNode
    right: ExprNode


@record
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
                if not math.isfinite(float(lit)):  # past the double range
                    raise ValueError
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
        self.depth = 0

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
        # every level of nesting passes here: a sign, a power's exponent and
        # the expression in parentheses or in a call
        tok = self.peek()
        if self.depth == MAX_DEPTH:
            raise _too_deep(tok)
        self.depth += 1
        if tok.kind == "OP" and tok.text in "+-":
            self.next()
            node = self.parse_unary()
            # canonicalize: a negated literal is just a negative literal
            if tok.text == "-":
                node = Num(-node.value) if isinstance(node, Num) else Neg(node)
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

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


def _too_deep(tok):
    return FieldParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                           tok.line, tok.col)


def _parse_checked(parser) -> ExprNode:
    """The parser's next expression, refused if its AST is deeper than
    MAX_DEPTH, by a walk that does not recurse."""
    tok = parser.peek()
    node = parser.parse_expr()
    stack = [(node, 1)]
    while stack:
        n, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _too_deep(tok)
        stack += [(getattr(n, k), depth + 1) for k in ("left", "right", "arg") if hasattr(n, k)]
    return node


def parse_expr(text: str) -> ExprNode:
    parser = _Parser(_tokenize(text))
    node = _parse_checked(parser)
    tok = parser.peek()
    if tok.kind != "EOF":
        raise FieldParseError(f"trailing input '{tok.text}'", tok.line, tok.col)
    return node


def parse_statements(text: str) -> dict[str, ExprNode]:
    """Parse 'F1|F2|F3 = expr' statements into a component -> AST map, in
    the order F1, F2, F3: a fresh dict of field_statements(text)'s ASTs."""
    return dict(field_statements(text)[0])


@functools.lru_cache(maxsize=_CACHE_SIZE)
def field_statements(text: str) -> tuple[tuple[tuple[str, ExprNode], ...], frozenset[str]]:
    """The statements of a field text, parsed once per process while it is
    among the last _CACHE_SIZE texts: ((component, AST), ...) in the order
    F1, F2, F3, and the set of the free parameters.  Each load of one text
    shares its ASTs, and so their FieldCode plan and code.  A text that
    fails raises its FieldParseError on every call; no error is cached."""
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
        defs[name_tok.text] = _parse_checked(parser)
        tok = parser.peek()
        if tok.kind == "SEMI":
            parser.next()
        elif tok.kind != "EOF":
            raise FieldParseError(f"trailing input '{tok.text}'", tok.line, tok.col)
    ordered = tuple((comp, defs[comp]) for comp in ("F1", "F2", "F3") if comp in defs)
    return ordered, frozenset().union(*(free_parameters(node) for _, node in ordered))


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
            # a sign on a sign needs no parentheses: n signs take n parser levels
            inner = render(n.arg, 1 if isinstance(n.arg, Neg) else 3)
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


# f(z) = 0 at real z = c + k*period, k an integer (period 0: z = c alone), for
# what poles() reads; None stands for z itself, _DIVIDES for tan, cot, coth
_ZEROS = {None: (0.0, 0.0), "sinh": (0.0, 0.0), "sin": (0.0, math.pi),
          "cos": (math.pi / 2, math.pi)}
_DIVIDES = {"tan": "cos", "cot": "sin", "coth": "sinh"}


def poles(nodes, params, window) -> list[float]:
    """The poles in the window [t0, t1] of a tuple of ASTs (None for a zero)
    with params bound, sorted: the exact zeros of a divisor, or of what tan,
    cot or coth divide by, that is an affine alpha t + beta (alpha, beta real)
    or sin, cos or sinh of one.  A divisor c*X, X*c or X/c, c a real, finite
    and nonzero constant, has the zeros of X.  Any other divisor declares
    nothing; its poles still raise SingularityError when the field is
    evaluated there."""
    t0, t1 = float(window[0]), float(window[1])
    found, stack = set(), [node for node in nodes if node is not None]
    while stack:
        n = stack.pop()
        stack += [getattr(n, k) for k in ("left", "right", "arg") if hasattr(n, k)]
        if isinstance(n, Call) and n.fn in _DIVIDES:
            f, arg = _DIVIDES[n.fn], n.arg
        elif isinstance(n, BinOp) and n.op == "/":
            d = _unscaled(n.right, params)
            f, arg = (d.fn, d.arg) if isinstance(d, Call) else (None, d)
        else:
            continue
        form = _affine(arg, params) if f in _ZEROS else None
        if not (form and form[0] and math.isfinite(form[0] + form[1])):
            continue
        (c, period), (a, b) = _ZEROS[f], form
        ks = (0,)
        if period:
            lo, hi = sorted((a * t0 + b, a * t1 + b))
            if not (hi - lo) / period < 1e5:  # rather than list them all
                raise DomainError(f"window [{t0}, {t1}] holds over 1e5 field poles")
            ks = range(math.floor((lo - c) / period) - 1, math.ceil((hi - c) / period) + 2)
        found.update(t for k in ks if t0 <= (t := (c + k * period - b) / a) <= t1)
    return sorted(found)


def _unscaled(n, params):
    """X for n = c*X, X*c or X/c, as often as n has that form, where c is a
    constant with a real, finite and nonzero value (its alpha is 0); else n."""
    def scale(c):
        form = _affine(c, params)
        return form and not form[0] and form[1] and math.isfinite(form[1])

    while isinstance(n, BinOp):
        if n.op == "*" and scale(n.left):
            n = n.right
        elif n.op in "*/" and scale(n.right):
            n = n.left
        else:
            return n
    return n


def _affine(n, params):
    """(alpha, beta), both real, if n is alpha t + beta with params bound."""
    if isinstance(n, Var) and n.name == "t":
        return 1.0, 0.0
    if isinstance(n, (Num, Var)):
        value = n.value if isinstance(n, Num) else params.get(n.name)
        return None if value is None or complex(value).imag else (0.0, complex(value).real)
    if isinstance(n, Neg):
        arg = _affine(n.arg, params)
        return arg and (-arg[0], -arg[1])
    if not (isinstance(n, BinOp) and (left := _affine(n.left, params))
            and (right := _affine(n.right, params))):
        return None
    (a1, b1), (a2, b2) = left, right
    if n.op in "+-":
        return (a1 + a2, b1 + b2) if n.op == "+" else (a1 - a2, b1 - b2)
    if n.op == "*" and not (a1 and a2):  # exact: a zero alpha's products are zeros
        return a1 * b2 + b1 * a2, b1 * b2
    return (a1 / b2, b1 / b2) if n.op == "/" and not a2 and b2 else None


def _generate(nodes):
    """The ops of a tuple of ASTs (None for a zero) in the grammar's order,
    each distinct operation once: (expression, message) pairs, the k-th
    assigned to _k, the message what its failure raises (None: a negation
    cannot fail); the names of the values, the j-th complete after ends[j]
    ops; and the leaves _c0, _c1, ... stand for, a number or a parameter's
    Var."""
    ops, leaves, slots, results, ends = [], [], {}, [], []
    for node in nodes:
        results.append(_walk(Num(0j) if node is None else node, ops, leaves, slots))
        ends.append(len(ops))
    return ops, results, ends, leaves


# cot and coth as the quotients FUNCTIONS computes, so that their sin, cos,
# sinh and cosh are shared with other uses and no op calls a lambda
_QUOTIENTS = {"cot": ("cos", "sin"), "coth": ("cosh", "sinh")}


def _walk(n, ops, leaves, slots):
    """The name of n's value, its ops appended where slots, keyed by a
    leaf's name or exact value or an op's expression text, has none yet:
    the same text does the same operation on the same operands, so a repeat
    takes the first one's name, and its message, since it fails only where
    the first has failed.  (Not a closure: one that calls itself is a
    cycle, freed only by the cyclic collector.)"""
    if isinstance(n, Var) and n.name == "t":
        return "t"
    if isinstance(n, (Num, Var)):
        # a number by its bits, so that 0 and -0 keep their own slots
        key = n.name if isinstance(n, Var) else struct.pack("2d", n.value.real, n.value.imag)
        if key not in slots:
            slots[key] = f"_c{len(leaves)}"
            leaves.append(n if isinstance(n, Var) else n.value)
        return slots[key]
    if isinstance(n, Neg):
        op = "-" + _walk(n.arg, ops, leaves, slots), None
    elif isinstance(n, Call) and n.fn in _QUOTIENTS:
        arg, what = _walk(n.arg, ops, leaves, slots), f"{n.fn} pole"
        num, den = (_add(f"{f}({arg})", what, ops, slots) for f in _QUOTIENTS[n.fn])
        op = f"{num} / {den}", what
    elif isinstance(n, Call) and n.fn in FUNCTIONS:
        op = f"{n.fn}({_walk(n.arg, ops, leaves, slots)})", f"{n.fn} pole"
    elif isinstance(n, BinOp) and n.op in _PY_OPS:
        left = _walk(n.left, ops, leaves, slots)
        right = _walk(n.right, ops, leaves, slots)
        op = f"{left} {_PY_OPS[n.op]} {right}", f"'{n.op}' overflow/pole"
    else:
        raise TypeError(f"not an ExprNode: {n!r}")
    return _add(*op, ops, slots)


def _add(expr, what, ops, slots):
    """The name of the op expr: a new _k if slots has none for its text."""
    if expr not in slots:
        ops.append((expr, what))
        slots[expr] = f"_{len(ops) - 1}"
    return slots[expr]


def _source(ops, results, ends, checked=False):
    """def f(t) doing the ops, for a grid; checked: def f(at), on t =
    complex(at), a failing op or value raising SingularityError naming it and at."""
    lines, done = ["def f(at):", "    t = complex(at)"] if checked else ["def f(t):"], 0
    for result, end in zip(results, ends):
        for k, (expr, what) in enumerate(ops[done:end], done):
            if checked and what:
                lines += ["    try:", f"        _{k} = {expr}", "    except _FAILS:",
                          f"        _pole({what!r}, at)"]
            else:
                lines.append(f"    _{k} = {expr}")
        # isfinite first, as abs of a NaN part can raise from a stale errno;
        # abs of a finite value whose modulus passes the double range raises
        # OverflowError, and that value is singular too
        singular = "_pole('field component singular', at)"
        lines += ["    try:", f"        if not isfinite({result}) or abs({result}) > _LIMIT:",
                  f"            {singular}", "    except _FAILS:", f"        {singular}"
                  ] if checked else []
        done = end
    return "\n".join(lines + [f"    return {', '.join(results)},"])


@functools.lru_cache(maxsize=256)
def _function_code(source):
    """A generated function's code object: a compile costs about 0.2 ms,
    and fields of one shape with other numbers share their source."""
    return compile(source, "<spineq.expr generated>", "exec").co_consts[0]


def _pole(what, t):
    raise SingularityError(f"{what} at t = {t}", t=t) from None


# the globals of generated code besides its _c names: cmath's functions and
# the checks' names for one time, and for a grid of times (_grid_globals)
_CHECKED = {"__builtins__": {}, **FUNCTIONS, "complex": complex, "abs": abs,
            "isfinite": cmath.isfinite, "_LIMIT": SINGULARITY_THRESHOLD, "_pole": _pole,
            "_FAILS": (ValueError, OverflowError, ZeroDivisionError)}


@functools.cache
def _grid_globals():
    return {"__builtins__": {}, **{k: _lifted(f) for k, f in FUNCTIONS.items()}}


def _lifted(f):
    """f on a Python complex, or on each element of a _Pair."""
    def call(z):
        return _Pair.of(map(f, z.values()), len(z.re)) if type(z) is _Pair else f(z)
    return call


def _parts(z):
    return (z.re, z.im) if type(z) is _Pair else (z.real, z.imag)


# CPython's _Py_c_sum, _Py_c_diff and _Py_c_prod on the parts, a Python
# complex operand a constant: a float64 operation rounds as C's double one
def _sum(a, b):
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    return _Pair(ar + br, ai + bi)


def _diff(a, b):
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    return _Pair(ar - br, ai - bi)


def _prod(a, b):
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    return _Pair(ar * br - ai * bi, ar * bi + ai * br)


def _quot(a, b):
    """CPython's _Py_c_quot, Smith's method (CACM 5 (1962) 435): where
    |br| >= |bi|, ratio = bi/br, denom = br + bi*ratio and the quotient
    ((ar + ai*ratio)/denom, (ai - ar*ratio)/denom); else ratio = br/bi,
    denom = br*ratio + bi and ((ar*ratio + ai)/denom, (ai*ratio - ar)/denom):
    one expression, its factors m1, m2 the exact 1.0 or ratio.  A NaN in b
    takes the second branch and gives NaN, as C's third does.  A zero
    divisor raises ZeroDivisionError, as in CPython, since a NaN left there
    could turn into 1 under z^0; so does the divisor (NaN, 0), whose NaN
    quotient the caller's replay then gives."""
    import numpy as np
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    big = abs(br) >= abs(bi)
    den = np.where(big, br, bi)
    if not den.all():
        raise ZeroDivisionError("complex division by zero")
    ratio = np.where(big, bi, br) / den
    m1, m2 = np.where(big, 1.0, ratio), np.where(big, ratio, 1.0)
    denom = br * m1 + bi * m2
    return _Pair((ar * m1 + ai * m2) / denom, (ai * m1 - ar * m2) / denom)


def _power(a, b):
    """CPython's ** at each element, a constant operand repeated."""
    n = len((a if type(a) is _Pair else b).re)
    xs, ys = (z.values() if type(z) is _Pair else itertools.repeat(z) for z in (a, b))
    return _Pair.of(map(operator.pow, xs, ys), n)


def _reflected(op):
    return lambda self, other: op(other, self)


class _Pair:
    """A complex value per time as float64 parts: re an array, im an array
    or a float (t's 0.0).  The operators do CPython's complex arithmetic
    on the parts (a Python complex operand is a constant), bit for bit that
    of each element as a Python complex."""

    __slots__ = ("re", "im", "_values")

    def __init__(self, re, im):
        self.re, self.im, self._values = re, im, None

    @classmethod
    def of(cls, values, n):
        """The pair of n Python complex values from an iterable."""
        import numpy as np
        z = np.fromiter(values, complex, n)
        return cls(z.real, z.imag)

    def values(self):
        """The elements as a list of Python complex, made on the first call."""
        if self._values is None:
            import numpy as np
            z = np.empty(self.re.shape, complex)
            z.real, z.imag = self.re, self.im
            self._values = z.tolist()
        return self._values

    def __neg__(self):
        return _Pair(-self.re, -self.im)

    __add__, __radd__ = _sum, _reflected(_sum)
    __sub__, __rsub__ = _diff, _reflected(_diff)
    __mul__, __rmul__ = _prod, _reflected(_prod)
    __truediv__, __rtruediv__ = _quot, _reflected(_quot)
    __pow__, __rpow__ = _power, _reflected(_power)


def _is_ndarray(t) -> bool:
    # numpy is loaded if an ndarray exists, so t is none while it is not
    np = sys.modules.get("numpy")
    return np is not None and isinstance(t, np.ndarray)


# ids of ASTs -> (the ASTs, keeping the ids theirs, numbers and parameter
# names by _c name, sources of the checked function for one time and of the
# grid's, each compiled on first use: verify samples grids alone)
_PLANS = {}


def _plan(nodes):
    key = tuple(map(id, nodes))
    if key not in _PLANS:
        ops, results, ends, leaves = _generate(nodes)
        names = [f"_c{k}" for k in range(len(leaves))]
        if len(_PLANS) == _CACHE_SIZE:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = (nodes, {c: v for c, v in zip(names, leaves) if not isinstance(v, Var)},
                       [(c, v.name) for c, v in zip(names, leaves) if isinstance(v, Var)],
                       _source(ops, results, ends, checked=True), _source(ops, results, ends))
    return _PLANS[key]


class FieldCode:
    """The code of a tuple of ASTs (None for a zero), params bound.
    scalar(t) returns the values at a time t as Python complex, or raises
    the SingularityError of the first operation or value that fails.
    grid(times) returns the (n, len(nodes)) values at a 1-D ndarray of
    times, or raises the first failure: the unchecked code runs once on
    _Pair values, whose arithmetic and cmath give each element the bits of
    scalar at its time, and a failing or singular grid is replayed by
    scalar node by node.  sample(t) is grid(t) for an ndarray t, else
    scalar(t) as an ndarray."""

    def __init__(self, nodes, params):
        self._nodes, numbers, names, self._checked, self._grid = _plan(tuple(nodes))
        self._consts = dict(numbers)
        for const, name in names:
            try:
                self._consts[const] = complex(params[name])
            except KeyError:
                raise FieldParseError(f"unknown identifier '{name}'") from None

    @functools.cached_property
    def scalar(self):
        return types.FunctionType(_function_code(self._checked), {**_CHECKED, **self._consts})

    def sample(self, t):
        import numpy as np
        return self.grid(t) if isinstance(t, np.ndarray) else np.array(self.scalar(t))

    def grid(self, times):
        import numpy as np

        from .numutil import grid_or_replay
        return grid_or_replay(self._array_call, self.sample, times,
                              ok=lambda v: np.abs(v) <= SINGULARITY_THRESHOLD)

    def _array_call(self, times):
        import numpy as np
        fn = types.FunctionType(_function_code(self._grid), {**_grid_globals(), **self._consts})
        out = np.empty((len(times), len(self._nodes)), dtype=complex)
        for k, v in enumerate(fn(_Pair(np.asarray(times, dtype=float), 0.0))):
            out.real[:, k], out.imag[:, k] = _parts(v)
        return out


def compile_expr(node: ExprNode, params: dict[str, complex]):
    """Bind an AST's parameters once (a missing one raises FieldParseError)
    and return its FieldCode as t -> complex, raising SingularityError at a
    pole; given a 1-D ndarray of times it returns their values, bit for bit
    the calls at each time, or raises the first failing time's error."""
    code = FieldCode((node,), params)
    return lambda t: code.grid(t)[:, 0] if _is_ndarray(t) else code.scalar(t)[0]


def eval_expr(node: ExprNode, t: float, params: dict[str, complex]) -> complex:
    """Evaluate an AST at time t; poles surface as SingularityError."""
    return FieldCode((node,), params).scalar(t)[0]
