"""Expression language for right-hand sides psi(x, z, nu) and subsolutions.

Grammar (EBNF, whitespace free between tokens):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := primary ("^" unary)?          right-associative
    primary := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

Identifiers: variables x1 x2 x3, z, nu1 nu2 nu3 nu4, r (= |x|), w
(= 1/last nu component); functions exp log sqrt sin cos abs (one argument)
and max min (two or more).  "-x^2" parses as -(x^2); "^" binds tighter than
unary minus and associates right.

Evaluation is numpy-polymorphic: an environment may hold a single point or a
batch (leading axes broadcast).  eval_with_derivs carries hand-rolled
forward-mode duals for (d/dz, d/dp) where p is the graph gradient hiding
inside nu and w; its value channel performs bitwise the same operations as
evaluate.  eval_x_gradient differentiates in x instead (for subsolution
checks); there z, nu, w are held fixed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class ExprSyntaxError(ValueError):
    """Malformed expression text; offset is a 0-based byte position."""

    def __init__(self, msg, offset):
        super().__init__(f"{msg} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    pass


class DomainError(ValueError):
    """Evaluation hit a math-domain violation; carries the subexpression."""

    def __init__(self, msg, subexpr):
        super().__init__(f"{msg} in '{subexpr}'")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


VARIABLES = ("x1", "x2", "x3", "z", "nu1", "nu2", "nu3", "nu4", "r", "w")
#: the position variables: an expression reading only these depends on x alone
POSITION = frozenset({"x1", "x2", "x3", "r"})
FUNCTIONS_1 = ("exp", "log", "sqrt", "sin", "cos", "abs")
FUNCTIONS_N = ("max", "min")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", off)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            shown = val if kind != "end" else "end of input"
            raise ExprSyntaxError(f"expected '{op}', found {shown!r}", off)
        return self.next()

    def parse(self):
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {val!r}", off)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                e = BinOp(val, e, self.term())
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                e = BinOp(val, e, self.unary())
            else:
                return e

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return BinOp("^", base, self.unary())
        return base

    def primary(self):
        kind, val, off = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in FUNCTIONS_1 and val not in FUNCTIONS_N:
                    raise UnknownIdentifier(f"unknown function '{val}'", off)
                self.next()
                args = [self.expr()]
                while True:
                    k2, v2, o2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if val in FUNCTIONS_1 and len(args) != 1:
                    raise ExprSyntaxError(f"'{val}' takes one argument", off)
                if val in FUNCTIONS_N and len(args) < 2:
                    raise ExprSyntaxError(f"'{val}' takes at least two arguments", off)
                return Call(val, tuple(args))
            if val not in VARIABLES:
                raise UnknownIdentifier(f"unknown identifier '{val}'", off)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        shown = val if kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected a value, found {shown!r}", off)


def parse(text):
    """Parse expression text into an immutable tree."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    return _Parser(text).parse()


_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 30, "^": 40, "atom": 50}


def _prec(e):
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_text(e):
    """Canonical text form; parse(to_text(e)) reproduces e structurally."""
    if isinstance(e, Num):
        s = repr(e.value)
        return f"({s})" if e.value < 0 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        if _prec(e.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        me = _PREC[e.op]
        left = to_text(e.left)
        right = to_text(e.right)
        if e.op == "^":
            # right-associative: parenthesize an exponent-shaped left child
            if lp <= me:
                left = f"({left})"
            if rp < me:
                right = f"({right})"
            return f"{left}^{right}"
        if lp < me:
            left = f"({left})"
        if rp <= me:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(to_text(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


def variables(e):
    """Set of variable names appearing in the tree."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return variables(e.arg)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Call):
        out = set()
        for a in e.args:
            out |= variables(a)
        return out
    return set()


def check_dimension(e, n):
    """Reject variables that do not exist in dimension n (x3 in 2-D, nu4 in 2-D)."""
    for name in sorted(variables(e)):
        if name.startswith("x") and int(name[1]) > n:
            raise UnknownIdentifier(f"variable '{name}' undefined in dimension {n}", 0)
        if name.startswith("nu") and int(name[2]) > n + 1:
            raise UnknownIdentifier(f"variable '{name}' undefined in dimension {n}", 0)


@dataclass
class EvalEnv:
    """Point data for evaluation; arrays may carry leading batch axes.

    x has shape (..., n), nu shape (..., n+1); z and w shape (...).
    """

    x: np.ndarray
    z: object
    nu: np.ndarray
    w: object

    @classmethod
    def from_gradient(cls, x, z, p):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        w = np.sqrt(1.0 + np.sum(p * p, axis=-1))
        nu = np.concatenate([-p, np.ones(p.shape[:-1] + (1,))], axis=-1) / w[..., None]
        return cls(x=x, z=np.asarray(z, dtype=float), nu=nu, w=w)

    @property
    def n(self):
        return self.x.shape[-1]

    def gradient(self):
        """Recover p = -w * nu[:n]."""
        return -np.asarray(self.nu)[..., : self.n] * np.asarray(self.w)[..., None]


class _Dual:
    """Forward-mode value/gradient pair; grad shape = val shape + (d,)."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad


def _is_int_valued(b):
    b = np.asarray(b)
    return np.all(b == np.floor(b))


def _eval(e, env, seeds):
    """Shared evaluator.  seeds is None for plain evaluation, else a dict
    name -> gradient-seed builder; values become _Dual."""

    def rec(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            return _lookup(node.name, env, seeds)
        if isinstance(node, Neg):
            a = rec(node.arg)
            if isinstance(a, _Dual):
                return _Dual(np.negative(a.val), np.negative(a.grad))
            return np.negative(a)
        if isinstance(node, BinOp):
            a = rec(node.left)
            b = rec(node.right)
            return _binop(node, a, b)
        if isinstance(node, Call):
            args = [rec(a) for a in node.args]
            return _call(node, args)
        raise TypeError(f"not an expression node: {node!r}")

    return rec(e)


def _val(a):
    return a.val if isinstance(a, _Dual) else a


def _grad(a, like, d):
    if isinstance(a, _Dual):
        return a.grad
    return np.zeros(np.shape(like) + (d,))


def _dims(a, b):
    for v in (a, b):
        if isinstance(v, _Dual):
            return v.grad.shape[-1]
    return None


def _binop(node, a, b):
    av, bv = _val(a), _val(b)
    d = _dims(a, b)
    if node.op == "+":
        v = np.add(av, bv)
        if d is None:
            return v
        return _Dual(v, _grad(a, av, d) + _grad(b, bv, d))
    if node.op == "-":
        v = np.subtract(av, bv)
        if d is None:
            return v
        return _Dual(v, _grad(a, av, d) - _grad(b, bv, d))
    if node.op == "*":
        v = np.multiply(av, bv)
        if d is None:
            return v
        return _Dual(v, _grad(a, av, d) * np.asarray(bv)[..., None]
                     + _grad(b, bv, d) * np.asarray(av)[..., None])
    if node.op == "/":
        if np.any(np.asarray(bv) == 0.0):
            raise DomainError("division by zero", to_text(node))
        v = np.divide(av, bv)
        if d is None:
            return v
        bvn = np.asarray(bv)[..., None]
        return _Dual(v, _grad(a, av, d) / bvn
                     - np.asarray(v)[..., None] * _grad(b, bv, d) / bvn)
    if node.op == "^":
        exp_const = not isinstance(b, _Dual) or not np.any(b.grad)
        if exp_const:
            if np.any((np.asarray(av) < 0.0) & ~_is_int_valued(bv)):
                raise DomainError("fractional power of a negative base", to_text(node))
            if np.any((np.asarray(av) == 0.0) & (np.asarray(bv) < 0.0)):
                raise DomainError("negative power of zero", to_text(node))
            v = np.power(av, bv)
            if d is None:
                return v
            k = np.asarray(bv)
            if np.all(k == 0.0):
                return _Dual(v, np.zeros(np.shape(np.asarray(v)) + (d,)))
            with np.errstate(divide="ignore", invalid="ignore"):
                dk = (k * np.power(av, k - 1.0))[..., None] * _grad(a, av, d)
            return _Dual(v, dk)
        # genuinely variable exponent: demand a positive base
        if np.any(np.asarray(av) <= 0.0):
            raise DomainError("variable power of a non-positive base", to_text(node))
        v = np.power(av, bv)
        if d is None:
            return v
        lg = np.log(av)
        return _Dual(v, np.asarray(v)[..., None] * (
            np.asarray(lg)[..., None] * _grad(b, bv, d)
            + (np.asarray(bv) / np.asarray(av))[..., None] * _grad(a, av, d)))
    raise AssertionError(node.op)


def _call(node, args):
    d = None
    for a in args:
        if isinstance(a, _Dual):
            d = a.grad.shape[-1]
            break
    fn = node.fn
    if fn in ("max", "min"):
        acc = args[0]
        for other in args[1:]:
            av, bv = _val(acc), _val(other)
            take = np.greater_equal(av, bv) if fn == "max" else np.less_equal(av, bv)
            v = np.where(take, av, bv)
            if d is None:
                acc = v
            else:
                g = np.where(np.asarray(take)[..., None],
                             _grad(acc, av, d), _grad(other, bv, d))
                acc = _Dual(v, g)
        return acc

    a = args[0]
    av = _val(a)
    if fn == "sqrt":
        if np.any(np.asarray(av) < 0.0):
            raise DomainError("sqrt of a negative value", to_text(node))
        v = np.sqrt(av)
        if d is None:
            return v
        with np.errstate(divide="ignore", invalid="ignore"):
            g = _grad(a, av, d) / (2.0 * np.asarray(v)[..., None])
        return _Dual(v, g)
    if fn == "log":
        if np.any(np.asarray(av) <= 0.0):
            raise DomainError("log of a non-positive value", to_text(node))
        v = np.log(av)
        if d is None:
            return v
        return _Dual(v, _grad(a, av, d) / np.asarray(av)[..., None])
    if fn == "exp":
        v = np.exp(av)
        if d is None:
            return v
        return _Dual(v, np.asarray(v)[..., None] * _grad(a, av, d))
    if fn == "sin":
        v = np.sin(av)
        if d is None:
            return v
        return _Dual(v, np.asarray(np.cos(av))[..., None] * _grad(a, av, d))
    if fn == "cos":
        v = np.cos(av)
        if d is None:
            return v
        return _Dual(v, -np.asarray(np.sin(av))[..., None] * _grad(a, av, d))
    if fn == "abs":
        v = np.abs(av)
        if d is None:
            return v
        sign = np.where(np.asarray(av) >= 0.0, 1.0, -1.0)
        return _Dual(v, sign[..., None] * _grad(a, av, d))
    raise AssertionError(fn)


def _lookup(name, env, seeds):
    n = env.n
    if name in ("x1", "x2", "x3"):
        k = int(name[1]) - 1
        if k >= n:
            raise UnknownIdentifier(f"variable '{name}' undefined in dimension {n}", 0)
        val = np.asarray(env.x, dtype=float)[..., k]
    elif name == "z":
        val = np.asarray(env.z, dtype=float)
    elif name.startswith("nu"):
        k = int(name[2]) - 1
        if k >= n + 1:
            raise UnknownIdentifier(f"variable '{name}' undefined in dimension {n}", 0)
        val = np.asarray(env.nu, dtype=float)[..., k]
    elif name == "r":
        x = np.asarray(env.x, dtype=float)
        val = np.sqrt(np.sum(x * x, axis=-1))
    elif name == "w":
        val = np.asarray(env.w, dtype=float)
    else:
        raise UnknownIdentifier(f"unknown identifier '{name}'", 0)
    val = val + 0.0  # detach from the env storage
    if seeds is None:
        return val
    g = seeds(name, val, env)
    return val if g is None else _Dual(val, g)


def _batch_shape(env, *vals):
    return np.broadcast_shapes(np.shape(env.x)[:-1], np.shape(env.z),
                               np.shape(env.w), *(np.shape(v) for v in vals))


def evaluate(e, env):
    """Plain value of e in env (float for point envs, array for batches)."""
    out = np.asarray(_eval(e, env, None), dtype=float)
    if np.ndim(env.x) == 1:
        return float(out)
    return np.broadcast_to(out, _batch_shape(env, out)) + 0.0


def _zp_seeds(name, val, env):
    """Seed gradients for (z, p_1..p_n): nu and w vary through p."""
    n = env.n
    d = n + 1
    shape = np.shape(val) + (d,)
    if name == "z":
        g = np.zeros(shape)
        g[..., 0] = 1.0
        return g
    if name == "w":
        g = np.zeros(shape)
        p = env.gradient()
        g[..., 1:] = p / np.asarray(env.w)[..., None]
        return g
    if name.startswith("nu"):
        k = int(name[2]) - 1
        g = np.zeros(shape)
        p = env.gradient()
        w = np.asarray(env.w, dtype=float)
        if k < n:
            # nu_k = -p_k / w
            g[..., 1:] = (p[..., k : k + 1] * p) / (w ** 3)[..., None]
            g[..., 1 + k] -= 1.0 / w
        else:
            # nu_{n+1} = 1/w
            g[..., 1:] = -p / (w ** 3)[..., None]
        return g
    return None  # x, r carry no (z, p) dependence


def eval_with_derivs(e, env):
    """Value plus (d/dz, d/dp) of e; nu and w are chained through p.

    Returns (value, d_z, d_p) with d_p of shape (..., n).  The value channel
    is bitwise identical to evaluate(e, env).
    """
    out = _eval(e, env, _zp_seeds)
    n = env.n
    if not isinstance(out, _Dual):
        val = np.asarray(out, dtype=float)
        dz = np.zeros(val.shape)
        dp = np.zeros(val.shape + (n,))
    else:
        val, dz, dp = np.asarray(out.val), out.grad[..., 0], out.grad[..., 1:]
    if np.ndim(env.x) == 1:
        return float(val), float(dz), dp.reshape(n).copy()
    shape = _batch_shape(env, val)
    return (np.broadcast_to(val, shape) + 0.0,
            np.broadcast_to(dz, shape) + 0.0,
            np.broadcast_to(dp, shape + (n,)) + 0.0)


def _x_seeds(name, val, env):
    n = env.n
    shape = np.shape(val) + (n,)
    if name in ("x1", "x2", "x3"):
        k = int(name[1]) - 1
        g = np.zeros(shape)
        g[..., k] = 1.0
        return g
    if name == "r":
        x = np.asarray(env.x, dtype=float)
        g = np.zeros(shape)
        # d|x|/dx = x/|x|; the guard keeps the origin's 0/0 at exactly 0
        g[...] = x / np.maximum(np.asarray(val), 1e-300)[..., None]
        return g
    return None  # z, nu, w held fixed in x-differentiation


def eval_x_gradient(e, env):
    """Value plus d/dx of e, holding z, nu, w fixed (subsolution checks)."""
    out = _eval(e, env, _x_seeds)
    n = env.n
    if not isinstance(out, _Dual):
        val = np.asarray(out, dtype=float)
        dx = np.zeros(val.shape + (n,))
    else:
        val, dx = np.asarray(out.val), out.grad
    if np.ndim(env.x) == 1:
        return float(val), dx.reshape(n).copy()
    shape = _batch_shape(env, val)
    return (np.broadcast_to(val, shape) + 0.0,
            np.broadcast_to(dx, shape + (n,)) + 0.0)


@dataclass
class PsiReport:
    """Sampled sanity profile of a right-hand side."""

    n_samples: int
    min_psi: float
    argmin: tuple
    min_psi_z: float
    min_gap: float | None
    nonnegative: bool
    monotone_z: bool


def validate_psi(e, spec, samples=2048, seed=7):
    """Sample psi over domain x depth x upper hemisphere and report minima.

    spec provides n, shape (with sample_interior) and optionally psi_lower.
    Checks psi >= 0, psi_z >= 0 (within 1e-10 slack) and, when a lower bound
    expression is present, psi >= psi_lower.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    check_dimension(e, n)
    x = spec.shape.sample_interior(rng, samples)
    mu0 = 2.0 * max(spec.shape.semiaxes)
    z = rng.uniform(-mu0, 0.0, size=samples)
    v = rng.normal(size=(samples, n + 1))
    v[:, -1] = np.abs(v[:, -1]) + 1e-8
    nu = v / np.linalg.norm(v, axis=-1, keepdims=True)
    w = 1.0 / nu[:, -1]
    env = EvalEnv(x=x, z=z, nu=nu, w=w)
    val, dz, _ = eval_with_derivs(e, env)
    imin = int(np.argmin(val))
    min_gap = None
    lower = getattr(spec, "psi_lower", None)
    if lower is not None:
        lval = evaluate(lower, env)
        min_gap = float((val - lval).min())
    return PsiReport(
        n_samples=samples,
        min_psi=float(val[imin]),
        argmin=(tuple(x[imin]), float(z[imin]), tuple(nu[imin])),
        min_psi_z=float(dz.min()),
        min_gap=min_gap,
        nonnegative=bool(val.min() >= 0.0),
        monotone_z=bool(dz.min() >= -1e-10),
    )
