"""Arithmetic expression grammar used by model rate, drift and observation formulas.

The grammar is deliberately small so that it stays closed under symbolic
differentiation (no abs, no floor):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := signed ('^' factor)?          # right associative
    signed  := '-' signed | atom
    atom    := NUMBER | NAME | NAME '(' args ')' | '(' expr ')'

Unary minus binds tighter than '^', so `-x^2` is `(-x)^2`.  Recognised
functions are sin, cos, exp, log (natural), min, max and the time-conditional
`ifelse(a < b, x, y)` whose comparison accepts `<`, `<=`, `>`, `>=`.  The name
`pi` is a built-in constant, not a free symbol.

A tree is evaluated by `Expr.eval`, the reference interpreter, and printed
only as code by `to_python`; a node's repr (and str) is positional.

Evaluation is total on the declared domain of a model (division by zero or
log of a nonpositive value is the caller's responsibility, as usual for
rate formulas).
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

_FUNCTIONS = ("sin", "cos", "exp", "log", "min", "max")
_COMPARATORS = ("<=", ">=", "<", ">")


class ExprError(ValueError):
    """Raised for syntax errors, with the offending column when known."""

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


class Expr:
    """Base class for expression nodes.  Nodes are immutable and hashable;
    a node class lists its fields, in constructor order, in `__slots__`, and
    two nodes are equal when they have the same class and equal fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the slots' own setters, which an assignment cannot reach, and
        # one getter of every field
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls.__slots__)
        cls._key = staticmethod(attrgetter(*cls.__slots__))

    def __init__(self, *fields):
        if len(fields) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes fields "
                            f"{', '.join(self.__slots__)}")
        for set_field, value in zip(self._setters, fields):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        # in a 1-tuple, so that a field is compared as in a tuple: the same
        # object (a nan constant) equals itself
        return (type(other) is type(self)
                and (self._key(self),) == (other._key(other),))

    def __hash__(self):
        return hash((type(self), self._key(self)))

    def __repr__(self):
        fields = (repr(getattr(self, name)) for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def eval(self, env):
        """Evaluate with `env` mapping symbol names to numbers or arrays."""
        return _eval(self, env)

    def walk(self):
        """This tree and each of its sub-trees, depth first: a node before
        its operands, and the operands in the order of its fields."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            for name in reversed(node.__slots__):
                value = getattr(node, name)
                if isinstance(value, Expr):
                    stack.append(value)
                elif isinstance(value, tuple):
                    stack.extend(reversed(value))

    def free_symbols(self):
        return {node.name for node in self.walk()
                if type(node) is Sym and node.name != "pi"}


class Const(Expr):
    __slots__ = ("value",)


class Sym(Expr):
    __slots__ = ("name",)


class Neg(Expr):
    __slots__ = ("operand",)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")  # op: one of + - * / ^


class Call(Expr):
    __slots__ = ("func", "args")  # func: sin cos exp log min max


class Ifelse(Expr):
    """Branch on a comparison; used for time-conditional rates and for the
    derivatives of min/max."""

    __slots__ = ("comparator", "lhs", "rhs", "then", "orelse")


ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# tokenizer / parser

def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExprError(f"malformed number {text[i:j]!r}", i + 1) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if text[i : i + 2] in ("<=", ">="):
            tokens.append(("op", text[i : i + 2], i))
            i += 2
            continue
        if ch in "+-*/^()<>,":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, col = self.next()
        if kind != "op" or val != value:
            raise ExprError(f"expected {value!r}, found {val!r}", col + 1)

    def parse(self):
        node = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing {val!r}", col + 1)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.signed()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = BinOp("^", node, self.factor())
        return node

    def signed(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.signed())
        return self.atom()

    def atom(self):
        kind, val, col = self.next()
        if kind == "num":
            return Const(val)
        if kind == "name":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                return self.call(val, col)
            return Sym(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprError(f"unexpected {val!r}", col + 1)

    def call(self, func, col):
        self.expect("(")
        if func == "ifelse":
            lhs = self.expr()
            kind, op, opcol = self.next()
            if kind != "op" or op not in _COMPARATORS:
                raise ExprError("ifelse needs a comparison like t < 10", opcol + 1)
            rhs = self.expr()
            self.expect(",")
            then = self.expr()
            self.expect(",")
            orelse = self.expr()
            self.expect(")")
            return Ifelse(op, lhs, rhs, then, orelse)
        if func not in _FUNCTIONS:
            raise ExprError(f"unknown function {func!r}", col + 1)
        args = [self.expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.expr())
            else:
                break
        self.expect(")")
        if func in ("min", "max"):
            if len(args) != 2:
                raise ExprError(f"{func} takes exactly two arguments", col + 1)
        elif len(args) != 1:
            raise ExprError(f"{func} takes exactly one argument", col + 1)
        return Call(func, tuple(args))


def parse(text):
    """Parse a formula string into an Expr tree."""
    if not isinstance(text, str):
        raise ExprError(f"expected a formula string, got {type(text).__name__}")
    if not text.strip():
        raise ExprError("empty formula")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _eval(node, env):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Sym):
        if node.name == "pi":
            return math.pi
        try:
            return env[node.name]
        except KeyError:
            raise ExprError(f"unbound symbol {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, BinOp):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return a ** b
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        if node.func == "sin":
            return np.sin(args[0])
        if node.func == "cos":
            return np.cos(args[0])
        if node.func == "exp":
            return np.exp(args[0])
        if node.func == "log":
            return np.log(args[0])
        if node.func == "min":
            return np.minimum(args[0], args[1])
        return np.maximum(args[0], args[1])
    if isinstance(node, Ifelse):
        cond = _COMPARE[node.comparator](_eval(node.lhs, env), _eval(node.rhs, env))
        yes = _eval(node.then, env)
        no = _eval(node.orelse, env)
        if np.ndim(cond) == 0:
            return yes if cond else no
        return np.where(cond, yes, no)
    raise TypeError(f"not an Expr node: {node!r}")


# ---------------------------------------------------------------------------
# simplifying constructors (used by differentiation and code generation)

def _is_const(node, value=None):
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


def add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def div(a, b):
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return BinOp("/", a, b)


def pow_(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return ONE
    if _is_const(a) and _is_const(b):
        return Const(a.value ** b.value)
    return BinOp("^", a, b)


def differentiate(node, name):
    """Derivative of `node` with respect to symbol `name`, simplified."""
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Sym):
        return ONE if node.name == name else ZERO
    if isinstance(node, Neg):
        return neg(differentiate(node.operand, name))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du = differentiate(u, name)
        dv = differentiate(v, name)
        if node.op == "+":
            return add(du, dv)
        if node.op == "-":
            return sub(du, dv)
        if node.op == "*":
            return add(mul(du, v), mul(u, dv))
        if node.op == "/":
            return div(sub(mul(du, v), mul(u, dv)), pow_(v, Const(2.0)))
        # power rule: split on which side is constant
        if _is_const(v):
            return mul(mul(v, pow_(u, Const(v.value - 1.0))), du)
        if _is_const(u):
            return mul(mul(pow_(u, v), Call("log", (u,))), dv)
        return mul(
            pow_(u, v),
            add(mul(dv, Call("log", (u,))), mul(v, div(du, u))),
        )
    if isinstance(node, Call):
        if node.func in ("min", "max"):
            u, v = node.args
            comparator = "<=" if node.func == "min" else ">="
            return Ifelse(
                comparator, u, v, differentiate(u, name), differentiate(v, name)
            )
        (u,) = node.args
        du = differentiate(u, name)
        if node.func == "sin":
            return mul(Call("cos", (u,)), du)
        if node.func == "cos":
            return neg(mul(Call("sin", (u,)), du))
        if node.func == "exp":
            return mul(Call("exp", (u,)), du)
        return div(du, u)  # log
    if isinstance(node, Ifelse):
        then = differentiate(node.then, name)
        orelse = differentiate(node.orelse, name)
        if then == orelse:
            return then
        return Ifelse(node.comparator, node.lhs, node.rhs, then, orelse)
    raise TypeError(f"not an Expr node: {node!r}")


# ---------------------------------------------------------------------------
# code generation

def to_python(node, resolve):
    """Emit a Python source fragment.

    `resolve` maps a symbol name to a source fragment; the emitted code uses
    the function names sin, cos, exp, log, minimum, maximum and where, which
    the caller binds to either math.* (fast scalars) or numpy.* (arrays).
    """
    if isinstance(node, Const):
        return repr(float(node.value))
    if isinstance(node, Sym):
        if node.name == "pi":
            return repr(math.pi)
        return resolve(node.name)
    if isinstance(node, Neg):
        return f"(-{to_python(node.operand, resolve)})"
    if isinstance(node, BinOp):
        a = to_python(node.left, resolve)
        b = to_python(node.right, resolve)
        op = "**" if node.op == "^" else node.op
        return f"({a}{op}{b})"
    if isinstance(node, Call):
        args = ", ".join(to_python(a, resolve) for a in node.args)
        name = {"min": "minimum", "max": "maximum"}.get(node.func, node.func)
        return f"{name}({args})"
    if isinstance(node, Ifelse):
        cond = (
            f"({to_python(node.lhs, resolve)} {node.comparator} "
            f"{to_python(node.rhs, resolve)})"
        )
        return (
            f"where({cond}, {to_python(node.then, resolve)}, "
            f"{to_python(node.orelse, resolve)})"
        )
    raise TypeError(f"not an Expr node: {node!r}")


# the numpy function of each binary operator, for writes into a buffer
UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide",
          "^": "power"}


def to_python_into(node, resolve, out, names):
    """Statements leaving in the array `out` the value `to_python` gives.
    An operation on the symbols `names`, other than a power (numpy's `**`
    takes shortcuts that `power` does not), is written into `out` one
    operation at a time in `to_python`'s order: an operand that is such an
    operation itself is formed in `out` first and the operation writes
    over it, so no intermediate array is made.  Any other node is
    evaluated and assigned."""
    def formed(node):
        return (isinstance(node, BinOp) and node.op != "^"
                and node.free_symbols() & names)

    if not formed(node):
        return [f"    {out}[...] = {to_python(node, resolve)}"]
    fn = UFUNCS[node.op]
    left, right = (to_python(n, resolve) for n in (node.left, node.right))
    if formed(node.left):
        return (to_python_into(node.left, resolve, out, names)
                + [f"    {fn}({out}, {right}, out={out})"])
    if formed(node.right):
        return (to_python_into(node.right, resolve, out, names)
                + [f"    {fn}({left}, {out}, out={out})"])
    return [f"    {fn}({left}, {right}, out={out})"]


SCALAR_NAMESPACE = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    # numpy's rule: a nan in either place is the result, and of two equal
    # values (0.0 and -0.0) the second
    "minimum": lambda a, b: a if a < b or a != a else b,
    "maximum": lambda a, b: a if a > b or a != a else b,
    "where": lambda c, a, b: a if c else b,
}

VECTOR_NAMESPACE = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
}
