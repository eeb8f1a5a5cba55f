"""Cylindrical test functions with exact symbolic gradients.

A function is ``f(x) = phi(l_1 . x, ..., l_k . x)``: a profile expression
over k formal variables composed with k linear projections. The node set
{constant, variable, sum, product, integer power, neg, exp, tanh, sin} is
closed under differentiation (the sine derivative is a quarter-period
shift) and contains no division.

Expressions serialize to prefix text, e.g. ``(exp (neg (pow v1 2)))``;
parsing and formatting round-trip exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import DimensionMismatch, _as_batch


class DslError(ValueError):
    """Syntax error in the prefix text form, with a 1-based position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Sum((self, _coerce(other)))

    def __radd__(self, other):
        return Sum((_coerce(other), self))

    def __sub__(self, other):
        return Sum((self, Neg(_coerce(other))))

    def __rsub__(self, other):
        return Sum((_coerce(other), Neg(self)))

    def __mul__(self, other):
        return Prod((self, _coerce(other)))

    def __rmul__(self, other):
        return Prod((_coerce(other), self))

    def __neg__(self):
        return Neg(self)

    def __pow__(self, exponent):
        return Pow(self, exponent)

    def __str__(self):
        return format_expr(self)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var(Expr):
    index: int  # zero-based; prints as v{index+1}

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be nonnegative")


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("sum needs at least one term")


@dataclass(frozen=True)
class Prod(Expr):
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("product needs at least one factor")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Tanh(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


def var(i: int) -> Var:
    """Formal variable, 1-based to match the text form (var(1) prints as v1)."""
    if i < 1:
        raise ValueError("variables are numbered from 1")
    return Var(i - 1)


def const(c) -> Const:
    return Const(float(c))


def exp(e) -> Exp:
    return Exp(_coerce(e))


def tanh(e) -> Tanh:
    return Tanh(_coerce(e))


def sin(e) -> Sin:
    return Sin(_coerce(e))


def evaluate(expr: Expr, z: np.ndarray) -> np.ndarray:
    """Evaluate a profile on rows of ``z`` (shape ``(n, k)``)."""
    if isinstance(expr, Const):
        return np.full(z.shape[0], expr.value)
    if isinstance(expr, Var):
        return z[:, expr.index].copy()
    if isinstance(expr, Sum):
        out = evaluate(expr.terms[0], z)
        for t in expr.terms[1:]:
            out += evaluate(t, z)
        return out
    if isinstance(expr, Prod):
        out = evaluate(expr.factors[0], z)
        for f in expr.factors[1:]:
            out *= evaluate(f, z)
        return out
    if isinstance(expr, Pow):
        return evaluate(expr.base, z) ** expr.exponent
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, z)
    if isinstance(expr, Exp):
        return np.exp(evaluate(expr.arg, z))
    if isinstance(expr, Tanh):
        return np.tanh(evaluate(expr.arg, z))
    if isinstance(expr, Sin):
        return np.sin(evaluate(expr.arg, z))
    raise TypeError(f"not an expression node: {expr!r}")


_ZERO = Const(0.0)
_ONE = Const(1.0)


def differentiate(expr: Expr, index: int) -> Expr:
    """Exact partial derivative with respect to variable ``index`` (0-based)."""
    if isinstance(expr, Const):
        return _ZERO
    if isinstance(expr, Var):
        return _ONE if expr.index == index else _ZERO
    if isinstance(expr, Sum):
        return Sum(tuple(differentiate(t, index) for t in expr.terms))
    if isinstance(expr, Prod):
        terms = []
        for i, f in enumerate(expr.factors):
            df = differentiate(f, index)
            rest = expr.factors[:i] + expr.factors[i + 1:]
            terms.append(Prod((df,) + rest) if rest else df)
        return Sum(tuple(terms))
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return _ZERO
        db = differentiate(expr.base, index)
        if expr.exponent == 1:
            return db
        return Prod((Const(float(expr.exponent)),
                     Pow(expr.base, expr.exponent - 1), db))
    if isinstance(expr, Neg):
        return Neg(differentiate(expr.arg, index))
    if isinstance(expr, Exp):
        return Prod((expr, differentiate(expr.arg, index)))
    if isinstance(expr, Tanh):
        # sech^2 = 1 - tanh^2 keeps the derivative inside the node set
        sech2 = Sum((_ONE, Neg(Pow(Tanh(expr.arg), 2))))
        return Prod((sech2, differentiate(expr.arg, index)))
    if isinstance(expr, Sin):
        # cos(a) = sin(a + pi/2): a quarter-period shift stays in the set
        cos = Sin(Sum((expr.arg, Const(math.pi / 2))))
        return Prod((cos, differentiate(expr.arg, index)))
    raise TypeError(f"not an expression node: {expr!r}")


def max_var_index(expr: Expr) -> int:
    """Largest 0-based variable index used, or -1 for constant expressions."""
    if isinstance(expr, Var):
        return expr.index
    if isinstance(expr, (Const,)):
        return -1
    if isinstance(expr, Sum):
        return max(max_var_index(t) for t in expr.terms)
    if isinstance(expr, Prod):
        return max(max_var_index(f) for f in expr.factors)
    if isinstance(expr, Pow):
        return max_var_index(expr.base)
    if isinstance(expr, (Neg, Exp, Tanh, Sin)):
        return max_var_index(expr.arg)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# prefix text form

_HEADS = {"sum", "prod", "pow", "neg", "exp", "tanh", "sin"}


def format_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        v = expr.value
        if v.is_integer() and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    if isinstance(expr, Var):
        return f"v{expr.index + 1}"
    if isinstance(expr, Sum):
        return "(sum " + " ".join(format_expr(t) for t in expr.terms) + ")"
    if isinstance(expr, Prod):
        return "(prod " + " ".join(format_expr(f) for f in expr.factors) + ")"
    if isinstance(expr, Pow):
        return f"(pow {format_expr(expr.base)} {expr.exponent})"
    if isinstance(expr, Neg):
        return f"(neg {format_expr(expr.arg)})"
    if isinstance(expr, Exp):
        return f"(exp {format_expr(expr.arg)})"
    if isinstance(expr, Tanh):
        return f"(tanh {format_expr(expr.arg)})"
    if isinstance(expr, Sin):
        return f"(sin {format_expr(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i + 1))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i + 1))
            i = j
    return tokens


def parse_expr(text: str) -> Expr:
    """Parse the prefix text form; raises ``DslError`` with a position."""
    tokens = _tokenize(text)
    if not tokens:
        raise DslError("empty expression", 1)
    expr, rest = _parse(tokens)
    if rest:
        raise DslError(f"unexpected trailing token {rest[0][0]!r}", rest[0][1])
    return expr


def _atom(token: str, pos: int) -> Expr:
    if len(token) > 1 and token[0] == "v" and token[1:].isdigit():
        idx = int(token[1:])
        if idx < 1:
            raise DslError("variables are numbered from 1", pos)
        return Var(idx - 1)
    try:
        return Const(float(token))
    except ValueError:
        raise DslError(f"unknown atom {token!r}", pos) from None


def _parse(tokens):
    token, pos = tokens[0]
    if token == ")":
        raise DslError("unexpected ')'", pos)
    if token != "(":
        return _atom(token, pos), tokens[1:]
    if len(tokens) < 2:
        raise DslError("unterminated '('", pos)
    head, head_pos = tokens[1]
    if head not in _HEADS:
        raise DslError(f"unknown operator {head!r}", head_pos)
    rest = tokens[2:]
    args = []
    while True:
        if not rest:
            raise DslError("unterminated '('", pos)
        if rest[0][0] == ")":
            rest = rest[1:]
            break
        if head == "pow" and len(args) == 1:
            token, tpos = rest[0]
            try:
                exponent = int(token)
            except ValueError:
                raise DslError("pow exponent must be an integer", tpos) from None
            args.append(exponent)
            rest = rest[1:]
            continue
        node, rest = _parse(rest)
        args.append(node)
    try:
        if head == "sum":
            return Sum(tuple(args)), rest
        if head == "prod":
            return Prod(tuple(args)), rest
        if head == "pow":
            if len(args) != 2:
                raise ValueError("pow takes a base and an integer exponent")
            return Pow(args[0], args[1]), rest
        if len(args) != 1:
            raise ValueError(f"{head} takes exactly one argument")
        return {"neg": Neg, "exp": Exp, "tanh": Tanh, "sin": Sin}[head](args[0]), rest
    except (ValueError, TypeError) as err:
        raise DslError(str(err), head_pos) from None


# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CylFunction:
    """``f(x) = phi(l_1 . x, ..., l_k . x)`` with exact gradient."""

    dim: int
    directions: np.ndarray  # (k, dim)
    profile: Expr

    def __post_init__(self):
        directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if directions.shape[1] != self.dim:
            raise DimensionMismatch("directions must live in R^dim")
        if not np.all(np.isfinite(directions)):
            raise ValueError("directions must be finite")
        if max_var_index(self.profile) >= directions.shape[0]:
            raise ValueError("profile references a variable with no direction")
        object.__setattr__(self, "directions", directions)

    @property
    def n_vars(self) -> int:
        return self.directions.shape[0]

    @cached_property
    def _partials(self) -> tuple:
        return tuple(differentiate(self.profile, i) for i in range(self.n_vars))

    def _projections(self, x):
        pts, single = _as_batch(x, self.dim)
        if self.dim == 1:
            # one product per entry, as the matmul forms it, without a
            # degenerate BLAS call's per-call cost
            return pts * self.directions.T, single
        return pts @ self.directions.T, single

    def eval(self, x):
        z, single = self._projections(x)
        vals = evaluate(self.profile, z)
        return float(vals[0]) if single else vals

    def __call__(self, x):
        return self.eval(x)

    def gradient(self, x):
        z, single = self._projections(x)
        out = np.zeros((z.shape[0], self.dim))  # kept when f has no variable
        for i, part in enumerate(self._partials):
            term = np.multiply.outer(evaluate(part, z), self.directions[i])
            # the first term is the sum's own array: 0 + term is term
            if i == 0:
                out = term
            else:
                out += term
        return out[0] if single else out

    def gradient_norm(self, x):
        g = self.gradient(x)
        if g.ndim == 1:
            return float(np.linalg.norm(g))
        return np.linalg.norm(g, axis=1)

    def lift(self, ambient_dim: int) -> "CylFunction":
        """View through the projection of R^ambient onto the first dim coords."""
        if ambient_dim < self.dim:
            raise ValueError("ambient dimension must be at least the current one")
        pad = np.zeros((self.n_vars, ambient_dim - self.dim))
        return CylFunction(dim=ambient_dim,
                           directions=np.hstack([self.directions, pad]),
                           profile=self.profile)

    def to_config(self) -> dict:
        return {"dim": self.dim, "directions": self.directions.tolist(),
                "profile": format_expr(self.profile)}


def function_from_config(cfg: dict) -> CylFunction:
    return CylFunction(dim=int(cfg["dim"]),
                       directions=np.array(cfg["directions"], dtype=float),
                       profile=parse_expr(cfg["profile"]))


def coordinate(dim: int, axis: int = 0) -> CylFunction:
    """The linear function x -> x[axis] as a cylindrical function."""
    e = np.zeros(dim)
    e[axis] = 1.0
    return CylFunction(dim=dim, directions=e[None, :], profile=Var(0))


def from_profile(profile: Expr, directions) -> CylFunction:
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    return CylFunction(dim=directions.shape[1], directions=directions,
                       profile=profile)
