"""Holomorphic expression trees: parsing, evaluation, differentiation.

Grammar, loosest binding first:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?           right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

NUMBER is an unsigned decimal literal with optional exponent.  `z` is the
free variable, `i`, `pi`, `e` are built-in constants, and any other bare
identifier is a named parameter bound at evaluation time.  Available
functions: exp, log, sqrt, sin, cos, sinh, cosh, erf (principal branches
for log and sqrt and for non-integer powers).

Trees are immutable and compare structurally.  Printing an expression and
re-parsing the text reproduces the tree node for node; to keep that true,
the simplifier below never manufactures a literal the grammar cannot spell
(negative or complex numbers stay wrapped in Neg / i-products).
"""

import cmath
import math
import re
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .specfun import erf_array, erf_c

_FUNCTIONS = {
    "exp": cmath.exp,
    "log": cmath.log,
    "sqrt": cmath.sqrt,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "erf": erf_c,
}

_NAN = complex(math.nan, math.nan)


def _raised_as_nan(fn):
    """fn over arrays, NaN wherever its value is not finite.

    A scalar function or power raises where its value would overflow or
    hit a pole (exp(800), log 0, 0^-1); numpy returns inf there, which a
    later quotient can turn finite again (1/exp(800) is 0).  As NaN, the
    point stays non-finite through the rest of the tree, as the raise
    ends the scalar evaluation.
    """
    def array_fn(*args):
        v = fn(*args)
        return np.where(np.isfinite(v), v, _NAN)

    return array_fn


_ARRAY_FUNCTIONS = {name: _raised_as_nan(fn) for name, fn in {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "erf": erf_array,
}.items()}

_CONSTANTS = {"i": 1j, "pi": complex(math.pi), "e": complex(math.e)}

# printer precedence levels
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 6


class ExprSyntaxError(ValueError):
    """Malformed source text; offset is the character position."""

    def __init__(self, message, offset):
        super().__init__("%s (offset %d)" % (message, offset))
        self.offset = offset


class UnknownFunction(ValueError):
    def __init__(self, name, offset):
        super().__init__("unknown function %r (offset %d)" % (name, offset))
        self.name = name
        self.offset = offset


class UnknownIdentifier(ValueError):
    def __init__(self, name, offset):
        super().__init__("unknown identifier %r (offset %d)" % (name, offset))
        self.name = name
        self.offset = offset


class UnboundParameter(ValueError):
    def __init__(self, name):
        super().__init__("parameter %r has no bound value" % (name,))
        self.name = name


class PoleOrOverflow(ArithmeticError):
    """An expression evaluated to a non-finite value or beyond the blowup
    bound 1e12, or hit a pole (division by zero, log of zero) on the way."""


def _checked(v):
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise PoleOrOverflow("non-finite value %r" % (v,))
    if abs(v.real) > 1e12 or abs(v.imag) > 1e12:
        raise PoleOrOverflow("magnitude exceeds blowup bound 1e+12")
    return v


def _pow_value(base, expo):
    # integer exponents go through repeated squaring, which is both faster
    # and exact for things like psi^2 in coefficient matrices
    if expo.imag == 0.0 and expo.real == int(expo.real) and abs(expo.real) <= 1024:
        n = int(expo.real)
        if base == 0 and n < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return base ** n
    return base ** expo


def _array_quotient(x, y):
    # numpy's x / 0 is inf or NaN, where the scalar quotient raises
    return np.where(y == 0, _NAN, x / y)


# What a compiled tree bottoms out in.  Every node compiles through the
# same _compile walk, given one of these two libraries: scalar closures
# take builtin complex and cmath, array closures numpy arrays and ufuncs.
_Leaves = namedtuple("_Leaves", "array var functions power")
_SCALAR = _Leaves(False, complex, _FUNCTIONS, _pow_value)
_ARRAY = _Leaves(True, lambda z: np.asarray(z, dtype=complex),
                 _ARRAY_FUNCTIONS, _raised_as_nan(np.power))


class Expr:
    """Base node.  Subclasses implement the small protocol below."""

    __slots__ = ()

    def eval(self, z, params=None):
        """Evaluate at the complex point z.

        params maps parameter names to values.  The tree is compiled and
        the value checked to be finite and below 1e12 in magnitude; a
        violation, or a division by zero or log of zero on the way, raises
        PoleOrOverflow.  Intermediate values are not checked: a large
        factor that cancels, as in exp(z)*exp(-z), evaluates normally.
        """
        try:
            return _checked(self._compile(params or {}, _SCALAR)(complex(z)))
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            if isinstance(exc, (UnboundParameter, UnknownIdentifier)):
                raise
            raise PoleOrOverflow(str(exc)) from exc

    def derivative(self):
        """Symbolic d/dz, as a new tree."""
        return self._d()

    def compiled(self, params=None):
        """Bind parameters and return a plain closure z -> value.

        This is the only evaluator: eval wraps it with the finiteness and
        blowup check of the result.  The bare closure checks nothing and
        raises the arithmetic's own errors; callers on hot paths
        (integrators, grid sweeps) guard the results themselves.  Unknown
        parameters fail here, at compile time.  compiled_array is the same
        tree walk over numpy arrays.
        """
        return self._compile(params or {}, _SCALAR)

    def compiled_array(self, params=None):
        """Bind parameters and return a closure over numpy arrays: z ->
        complex array of z's shape, one value per element.

        Same tree walk as compiled, with numpy's operators and ufuncs as
        leaves and erf by the same series, so each element agrees with the
        scalar closure's value to rounding, not bit for bit.  Nothing
        raises at run time: where the scalar closure raises (a pole, log 0,
        a function or power that overflows), the value is NaN, and it
        stays NaN through the rest of the tree.  numpy's floating-point
        warnings are suppressed inside the closure.
        """
        f = self._compile(params or {}, _ARRAY)

        def evaluate_array(z):
            shape = np.shape(z)
            with np.errstate(all="ignore"):
                v = f(z)
            return v if np.shape(v) == shape else np.full(shape, v)

        return evaluate_array

    def _has_z(self):
        # whether z occurs in the tree; Var and nodes outside the grammar
        # that depend on z say so themselves
        return any(v._has_z() for v in _subtrees(self).values())

    def __str__(self):
        return self._fmt(_P_ADD)

    def __repr__(self):
        return "%s<%s>" % (type(self).__name__, self._fmt(_P_ADD))


@dataclass(frozen=True, repr=False)
class Num(Expr):
    """Nonnegative real literal.  Other constants are composite nodes."""
    value: float

    def _d(self):
        return Num(0.0)

    def _compile(self, params, lib):
        v = complex(self.value)
        return lambda z: v

    def _fmt(self, ctx):
        v = self.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)


@dataclass(frozen=True, repr=False)
class Const(Expr):
    """Built-in named constant: i, pi, or e."""
    name: str

    def _d(self):
        return Num(0.0)

    def _compile(self, params, lib):
        v = _CONSTANTS[self.name]
        return lambda z: v

    def _fmt(self, ctx):
        return self.name


@dataclass(frozen=True, repr=False)
class Var(Expr):
    """The free variable z."""

    def _d(self):
        return Num(1.0)

    def _compile(self, params, lib):
        # builtin complex keeps scalar arithmetic raising (not warning) at
        # poles
        return lib.var

    def _has_z(self):
        return True

    def _fmt(self, ctx):
        return "z"


@dataclass(frozen=True, repr=False)
class Param(Expr):
    """Named parameter, bound at evaluation time."""
    name: str

    def _d(self):
        return Num(0.0)

    def _compile(self, params, lib):
        try:
            v = complex(params[self.name])
        except KeyError:
            raise UnboundParameter(self.name) from None
        return lambda z: v

    def _fmt(self, ctx):
        return self.name


@dataclass(frozen=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr

    def _d(self):
        return add(self.left._d(), self.right._d())

    def _compile(self, params, lib):
        lf, rf = self.left._compile(params, lib), self.right._compile(params, lib)
        return lambda z: lf(z) + rf(z)

    def _fmt(self, ctx):
        s = "%s+%s" % (self.left._fmt(_P_ADD), self.right._fmt(_P_MUL))
        return s if _P_ADD >= ctx else "(%s)" % s


@dataclass(frozen=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr

    def _d(self):
        return sub(self.left._d(), self.right._d())

    def _compile(self, params, lib):
        lf, rf = self.left._compile(params, lib), self.right._compile(params, lib)
        return lambda z: lf(z) - rf(z)

    def _fmt(self, ctx):
        s = "%s-%s" % (self.left._fmt(_P_ADD), self.right._fmt(_P_MUL))
        return s if _P_ADD >= ctx else "(%s)" % s


@dataclass(frozen=True, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr

    def _d(self):
        return add(mul(self.left._d(), self.right), mul(self.left, self.right._d()))

    def _compile(self, params, lib):
        lf, rf = self.left._compile(params, lib), self.right._compile(params, lib)
        return lambda z: lf(z) * rf(z)

    def _fmt(self, ctx):
        s = "%s*%s" % (self.left._fmt(_P_MUL), self.right._fmt(_P_NEG))
        return s if _P_MUL >= ctx else "(%s)" % s


@dataclass(frozen=True, repr=False)
class Div(Expr):
    left: Expr
    right: Expr

    def _d(self):
        num = sub(mul(self.left._d(), self.right), mul(self.left, self.right._d()))
        return div(num, mul(self.right, self.right))

    def _compile(self, params, lib):
        lf, rf = self.left._compile(params, lib), self.right._compile(params, lib)
        if lib.array:
            return lambda z: _array_quotient(lf(z), rf(z))
        return lambda z: lf(z) / rf(z)

    def _fmt(self, ctx):
        s = "%s/%s" % (self.left._fmt(_P_MUL), self.right._fmt(_P_NEG))
        return s if _P_MUL >= ctx else "(%s)" % s


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr

    def _d(self):
        return neg(self.arg._d())

    def _compile(self, params, lib):
        f = self.arg._compile(params, lib)
        return lambda z: -f(z)

    def _fmt(self, ctx):
        s = "-%s" % self.arg._fmt(_P_NEG)
        return s if _P_NEG >= ctx else "(%s)" % s


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    base: Expr
    expo: Expr

    def _d(self):
        f, g = self.base, self.expo
        if not g._has_z():
            # d f^c = c f^(c-1) f'
            if isinstance(g, Num):
                dec = num_signed(g.value - 1.0)
            else:
                dec = sub(g, Num(1.0))
            return mul(mul(g, pow_(f, dec)), f._d())
        if not f._has_z():
            # d c^g = c^g log(c) g'
            return mul(mul(self, Call("log", f)), g._d())
        # f^g (g' log f + g f'/f)
        inner = add(mul(g._d(), Call("log", f)), div(mul(g, f._d()), f))
        return mul(self, inner)

    def _compile(self, params, lib):
        bf = self.base._compile(params, lib)
        if not lib.array and isinstance(self.expo, Num) \
                and self.expo.value == int(self.expo.value) \
                and abs(self.expo.value) <= 1024:
            n = int(self.expo.value)
            return lambda z: bf(z) ** n
        ef = self.expo._compile(params, lib)
        power = lib.power
        return lambda z: power(bf(z), ef(z))

    def _fmt(self, ctx):
        s = "%s^%s" % (self.base._fmt(_P_ATOM), self.expo._fmt(_P_NEG))
        return s if _P_POW >= ctx else "(%s)" % s


@dataclass(frozen=True, repr=False)
class Call(Expr):
    func: str
    arg: Expr

    def _d(self):
        a = self.arg
        da = a._d()
        if self.func == "exp":
            outer = self
        elif self.func == "log":
            return div(da, a)
        elif self.func == "sqrt":
            return div(da, mul(Num(2.0), self))
        elif self.func == "sin":
            outer = Call("cos", a)
        elif self.func == "cos":
            outer = neg(Call("sin", a))
        elif self.func == "sinh":
            outer = Call("cosh", a)
        elif self.func == "cosh":
            outer = Call("sinh", a)
        elif self.func == "erf":
            # d erf = (2/sqrt(pi)) e^{-a^2}
            outer = mul(div(Num(2.0), Call("sqrt", Const("pi"))),
                        Call("exp", neg(mul(a, a))))
        else:
            raise UnknownFunction(self.func, -1)
        return mul(outer, da)

    def _compile(self, params, lib):
        fn = lib.functions[self.func]
        af = self.arg._compile(params, lib)
        return lambda z: fn(af(z))

    def _fmt(self, ctx):
        return "%s(%s)" % (self.func, self.arg._fmt(_P_ADD))


# ---------------------------------------------------------------------------
# smart constructors: light folding that never leaves the printable alphabet

def num_signed(x):
    """A literal for any real x: Num for x >= 0, Neg(Num) otherwise."""
    x = float(x)
    if x >= 0.0:
        return Num(x)
    return Neg(Num(-x))


def const_expr(c):
    """A tree spelling the complex constant c with the grammar's alphabet."""
    c = complex(c)
    if c.imag == 0.0:
        return num_signed(c.real)
    if c.imag == 1.0:
        im = Const("i")
    elif c.imag == -1.0:
        im = Neg(Const("i"))
    else:
        im = mul(num_signed(c.imag), Const("i"))
    if c.real == 0.0:
        return im
    if isinstance(im, Neg):
        return sub(num_signed(c.real), im.arg)
    return add(num_signed(c.real), im)


def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


def add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return num_signed(a.value - b.value)
    return Sub(a, b)


def mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def div(a, b):
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def neg(a):
    if _is_num(a, 0.0):
        return a
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if isinstance(a, Num) and isinstance(b, Num):
        try:
            v = a.value ** b.value
        except (OverflowError, ZeroDivisionError):
            return Pow(a, b)
        if isinstance(v, float) and math.isfinite(v) and v >= 0.0:
            return Num(v)
    return Pow(a, b)


# ---------------------------------------------------------------------------
# lexer / parser

_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, allowed_params):
        self.tokens = _tokenize(text)
        self.k = 0
        self.allowed = allowed_params

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError("expected %r" % op, pos)
        self.advance()

    def parse(self):
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected %r after expression" % text, pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                e = Add(e, rhs) if text == "+" else Sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                e = Mul(e, rhs) if text == "*" else Div(e, rhs)
            else:
                return e

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in _FUNCTIONS:
                    raise UnknownFunction(text, pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text == "z":
                return Var()
            if text in _CONSTANTS:
                return Const(text)
            if self.allowed is not None and text not in self.allowed:
                raise UnknownIdentifier(text, pos)
            return Param(text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError("unexpected %r" % (text or "end of input"), pos)


def parse(text, params=None):
    """Parse source text into an expression tree.

    params, when given, is the collection of parameter names the caller
    will bind; any other bare identifier raises UnknownIdentifier at parse
    time.  With params=None every unknown identifier becomes a Param node.
    """
    return _Parser(text, None if params is None else frozenset(params)).parse()


def evaluate(e, z, params=None):
    """Functional form of Expr.eval."""
    return e.eval(z, params=params)


def derivative(e):
    """Functional form of Expr.derivative."""
    return e._d()


def _subtrees(e):
    """The Expr-valued dataclass fields of a node, {name: subtree} in
    field order."""
    fields = {name: getattr(e, name)
              for name in getattr(e, "__dataclass_fields__", ())}
    return {name: v for name, v in fields.items() if isinstance(v, Expr)}


# the smart constructor of each operator node, by its subtrees in order
_SMART = {Add: add, Sub: sub, Mul: mul, Div: div, Neg: neg, Pow: pow_}


def subst_params(e, params):
    """Replace bound Param nodes by constant spellings of their values.

    Parameters absent from the mapping are kept symbolic.  Rebuilding goes
    through the smart constructors, so bindings like 1 or 0 fold away.
    """
    if isinstance(e, Param):
        if e.name in params:
            return const_expr(complex(params[e.name]))
        return e
    if not isinstance(e, Expr):
        raise TypeError("not an expression node: %r" % (e,))
    kw = {name: subst_params(v, params) for name, v in _subtrees(e).items()}
    if not kw:
        return e
    if type(e) in _SMART:
        return _SMART[type(e)](*kw.values())
    return replace(e, **kw)


# ---------------------------------------------------------------------------
# simplification: product flattening with structural cancellation

_POLY_MAXDEG = 32


def _poly_coeffs(e):
    """Coefficients [c0, c1, ...] if e is a parameter-free polynomial in z
    of degree <= _POLY_MAXDEG, else None."""
    if isinstance(e, Num):
        return [complex(e.value)]
    if isinstance(e, Const):
        return [_CONSTANTS[e.name]]
    if isinstance(e, Var):
        return [0j, 1 + 0j]
    if isinstance(e, (Param, Call)):
        return None
    if isinstance(e, (Add, Sub)):
        a = _poly_coeffs(e.left)
        b = _poly_coeffs(e.right)
        if a is None or b is None:
            return None
        n = max(len(a), len(b))
        a = a + [0j] * (n - len(a))
        b = b + [0j] * (n - len(b))
        s = 1.0 if isinstance(e, Add) else -1.0
        return _poly_trim([x + s * y for x, y in zip(a, b)])
    if isinstance(e, Neg):
        a = _poly_coeffs(e.arg)
        return None if a is None else [-x for x in a]
    if isinstance(e, Mul):
        a = _poly_coeffs(e.left)
        b = _poly_coeffs(e.right)
        if a is None or b is None:
            return None
        return _poly_conv(a, b)
    if isinstance(e, Div):
        a = _poly_coeffs(e.left)
        b = _poly_coeffs(e.right)
        if a is None or b is None or len(b) != 1 or b[0] == 0:
            return None
        return [x / b[0] for x in a]
    if isinstance(e, Pow):
        if not (isinstance(e.expo, Num) and e.expo.value == int(e.expo.value)):
            return None
        n = int(e.expo.value)
        a = _poly_coeffs(e.base)
        if a is None:
            return None
        if n < 0:
            if len(a) == 1 and a[0] != 0:
                return [a[0] ** n]
            return None
        out = [1 + 0j]
        for _ in range(n):
            out = _poly_conv(out, a)
            if out is None:
                return None
        return out
    return None


def _poly_trim(c):
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_conv(a, b):
    if len(a) + len(b) - 2 > _POLY_MAXDEG:
        return None
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def simplify(e):
    """Cancel structurally equal factors across products and quotients.

    Factors of a product tree (through Mul, Div, Neg, and integer Pow) are
    collected with multiplicities; equal subtrees cancel, numeric factors
    and powers of i fold into one leading coefficient, and exp factors
    merge by adding their arguments, disappearing when the arguments sum
    to the zero polynomial.  Sums are simplified term by term.  The result
    evaluates identically away from removable singularities of the input
    (a cancelled factor is assumed nonzero).
    """
    if not isinstance(e, (Add, Sub, Mul, Div, Neg, Pow, Call)):
        return e                    # atoms, and nodes outside the grammar
    if isinstance(e, Add):
        return add(simplify(e.left), simplify(e.right))
    if isinstance(e, Sub):
        return sub(simplify(e.left), simplify(e.right))
    if isinstance(e, Call):
        arg = simplify(e.arg)
        if e.func == "exp":
            pc = _poly_coeffs(arg)
            if pc is not None and all(x == 0 for x in pc):
                return Num(1.0)
        return Call(e.func, arg)
    if isinstance(e, Pow) and not (isinstance(e.expo, Num)
                                   and e.expo.value == int(e.expo.value)):
        return pow_(simplify(e.base), simplify(e.expo))
    # Mul / Div / Neg / integer Pow: flatten
    coeff, factors, exp_args = _factor_product(e)
    if coeff == 0:
        return Num(0.0)
    if exp_args:
        total = _exp_exponent(exp_args)
        if total is not None and all(c == 0 for c in total):
            exp_args = []
    for arg, m in exp_args:
        factors.append([Call("exp", arg), m])
    return _rebuild_product(coeff, factors)


def _factor_product(e):
    """Flatten a product tree into (coefficient, factors, exp arguments).

    factors and exp arguments are [expr, multiplicity] lists in insertion
    order with zero multiplicities already removed; numeric leaves and the
    constant i are folded into the complex coefficient.  Subtrees that are
    not product-shaped arrive simplified.
    """
    state = {"coeff": 1 + 0j}
    factors = []                      # [expr, multiplicity], insertion order
    exp_args = []                     # [argument expr, multiplicity]

    def merge(lst, expr, m):
        for item in lst:
            if item[0] == expr:
                item[1] += m
                return
        lst.append([expr, m])

    def walk(x, m, presimplified=False):
        if isinstance(x, Mul):
            walk(x.left, m)
            walk(x.right, m)
        elif isinstance(x, Div):
            walk(x.left, m)
            walk(x.right, -m)
        elif isinstance(x, Neg):
            state["coeff"] *= (-1.0) ** m
            walk(x.arg, m)
        elif isinstance(x, Num):
            if x.value == 0.0 and m < 0:
                merge(factors, x, m)      # leave explicit 1/0 alone
            else:
                state["coeff"] *= complex(x.value) ** m
        elif isinstance(x, Const) and x.name == "i":
            state["coeff"] *= (1j) ** m
        elif isinstance(x, Pow) and isinstance(x.expo, Num) \
                and x.expo.value == int(x.expo.value) \
                and abs(x.expo.value) <= _POLY_MAXDEG * 2:
            walk(x.base, m * int(x.expo.value))
        elif isinstance(x, Call) and x.func == "exp":
            merge(exp_args, simplify(x.arg), m)
        elif not presimplified:
            walk(simplify(x), m, presimplified=True)
        else:
            merge(factors, x, m)

    walk(e, 1)
    factors = [f for f in factors if f[1] != 0]
    exp_args = [f for f in exp_args if f[1] != 0]
    return state["coeff"], factors, exp_args


def _exp_exponent(exp_args):
    """Polynomial coefficients of the sum of m * arg over the exp
    arguments [arg, m] of _factor_product, lowest degree first; None
    unless every argument is a polynomial."""
    polys = [_poly_coeffs(arg) for arg, _ in exp_args]
    if any(p is None for p in polys):
        return None
    total = [0j] * max(len(p) for p in polys)
    for (_, m), p in zip(exp_args, polys):
        for k, c in enumerate(p):
            total[k] += m * c
    return total


def _rebuild_product(coeff, factors):
    num = [(f, m) for f, m in factors if m > 0]
    den = [(f, -m) for f, m in factors if m < 0]

    def prod(lst, lead):
        acc = lead
        for f, m in lst:
            t = f if m == 1 else Pow(f, Num(float(m)))
            acc = t if acc is None else Mul(acc, t)
        return acc

    if not num and not den:
        return const_expr(coeff)
    negate = False
    lead = None
    if coeff == -1:
        negate = True
    elif coeff != 1:
        lead = const_expr(coeff)
    num_expr = prod(num, lead)
    if den:
        result = Div(Num(1.0) if num_expr is None else num_expr,
                     prod(den, None))
    else:
        result = num_expr
    return Neg(result) if negate else result
