"""Cylindrical test functions with exact symbolic gradients.

A function is ``f(x) = phi(l_1 . x, ..., l_k . x)``: a profile expression
over k formal variables composed with k linear projections.

A profile is a tree of ``Expr`` nodes, each an immutable ``head`` and its
``args``, equal (and hash equal) to every tree of its shape. By head:

- ``const``: one finite float; ``var``: one 0-based index (0 prints v1);
- ``sum``, ``prod``: one or more nodes; ``pow``: a node, an integer >= 0;
- ``neg``, ``exp``, ``tanh``, ``sin``: one node. ``_UNARY`` holds the
  numpy function of each, ``_OUTER`` the outer derivative of each but the
  linear ``neg``; a new one-argument head is an entry in both.

``Expr`` checks each node. The set is closed under differentiation (the
sine derivative is a quarter-period shift) and has no division. The prefix
text form, e.g. ``(exp (neg (pow v1 2)))``, round-trips exactly.
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


# the one-argument heads and the numpy functions that evaluate them
_UNARY = {"neg": np.negative, "exp": np.exp, "tanh": np.tanh, "sin": np.sin}
# how many args each head takes; None is one or more
_ARITY = {"const": 1, "var": 1, "sum": None, "prod": None, "pow": 2,
          **dict.fromkeys(_UNARY, 1)}
_OPERATORS = {"sum", "prod", "pow", *_UNARY}  # written (head arg ...)


class Expr:
    """One profile node: a ``head`` and its ``args`` (module docstring)."""

    __slots__ = ("head", "args")

    def __init__(self, head: str, *args):
        if head not in _ARITY:
            raise ValueError(f"unknown head {head!r}")
        arity = _ARITY[head]
        if len(args) != arity if arity else not args:
            raise ValueError(f"{head} takes {arity or 'one or more'} "
                             f"argument{'' if arity == 1 else 's'}")
        *nodes, last = args
        if head == "const":
            args = (float(last),)
            if not math.isfinite(args[0]):
                raise ValueError(f"constants must be finite, got {args[0]!r}")
        elif head in ("var", "pow"):
            if not isinstance(last, int) or last < 0:
                raise ValueError(f"{head} takes a nonnegative integer "
                                 f"{'index' if head == 'var' else 'exponent'}")
        else:
            nodes.append(last)
        if not all(isinstance(a, Expr) for a in nodes):
            raise TypeError(f"{head} takes expression nodes")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "args", args)

    def __setattr__(self, name, value):
        raise AttributeError("expression nodes are immutable")

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return Expr, (self.head, *self.args)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.head == other.head and self.args == other.args

    def __hash__(self):
        return hash((self.head, self.args))

    def __repr__(self):
        return f"Expr({', '.join(map(repr, (self.head, *self.args)))})"

    def __add__(self, other):
        return Expr("sum", self, _coerce(other))

    def __radd__(self, other):
        return Expr("sum", _coerce(other), self)

    def __sub__(self, other):
        return Expr("sum", self, Expr("neg", _coerce(other)))

    def __rsub__(self, other):
        return Expr("sum", _coerce(other), Expr("neg", self))

    def __mul__(self, other):
        return Expr("prod", self, _coerce(other))

    def __rmul__(self, other):
        return Expr("prod", _coerce(other), self)

    def __neg__(self):
        return Expr("neg", self)

    def __pow__(self, exponent):
        return Expr("pow", self, exponent)

    def __str__(self):
        return format_expr(self)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Expr("const", value)
    raise TypeError(f"cannot use {value!r} in an expression")


def var(i: int) -> Expr:
    """Formal variable, 1-based to match the text form (var(1) prints as v1)."""
    if i < 1:
        raise ValueError("variables are numbered from 1")
    return Expr("var", i - 1)


def const(c) -> Expr:
    return Expr("const", c)


def exp(e) -> Expr:
    return Expr("exp", _coerce(e))


def tanh(e) -> Expr:
    return Expr("tanh", _coerce(e))


def sin(e) -> Expr:
    return Expr("sin", _coerce(e))


def evaluate(expr: Expr, z: np.ndarray) -> np.ndarray:
    """Evaluate a profile on rows of ``z`` (shape ``(n, k)``)."""
    head, args = expr.head, expr.args
    if head == "const":
        return np.full(z.shape[0], args[0])
    if head == "var":
        return z[:, args[0]].copy()
    if head == "pow":
        return evaluate(args[0], z) ** args[1]
    out = evaluate(args[0], z)
    if head == "sum":
        for t in args[1:]:
            out += evaluate(t, z)
    elif head == "prod":
        for f in args[1:]:
            out *= evaluate(f, z)
    else:
        out = _UNARY[head](out)
    return out


_ZERO = Expr("const", 0.0)
_ONE = Expr("const", 1.0)
# the outer derivative f'(a) of each one-argument head f but the linear
# neg, as a tree inside the node set, from the node f(a)
_OUTER = {
    "exp": lambda e: e,
    # sech^2 = 1 - tanh^2
    "tanh": lambda e: Expr("sum", _ONE, Expr("neg", Expr("pow", e, 2))),
    # cos(a) = sin(a + pi/2): a quarter-period shift
    "sin": lambda e: Expr("sin", Expr("sum", e.args[0],
                                      Expr("const", math.pi / 2))),
}


def differentiate(expr: Expr, index: int) -> Expr:
    """Exact partial derivative with respect to variable ``index`` (0-based)."""
    head, args = expr.head, expr.args
    if head == "const":
        return _ZERO
    if head == "var":
        return _ONE if args[0] == index else _ZERO
    if head == "pow":
        base, exponent = args
        if exponent == 0:
            return _ZERO
        db = differentiate(base, index)
        if exponent == 1:
            return db
        return Expr("prod", Expr("const", exponent),
                    Expr("pow", base, exponent - 1), db)
    if head == "sum":
        return Expr("sum", *(differentiate(t, index) for t in args))
    if head == "prod":
        terms = []
        for i, f in enumerate(args):
            df = differentiate(f, index)
            rest = args[:i] + args[i + 1:]
            terms.append(Expr("prod", df, *rest) if rest else df)
        return Expr("sum", *terms)
    da = differentiate(args[0], index)
    if head == "neg":
        return Expr("neg", da)
    return Expr("prod", _OUTER[head](expr), da)


def max_var_index(expr: Expr) -> int:
    """Largest 0-based variable index used, or -1 for constant expressions."""
    if expr.head == "var":
        return expr.args[0]
    return max((max_var_index(a) for a in expr.args if isinstance(a, Expr)),
               default=-1)


# ---------------------------------------------------------------------------
# prefix text form

def format_expr(expr: Expr) -> str:
    head, args = expr.head, expr.args
    if head == "const":
        v = args[0]
        return str(int(v)) if v.is_integer() and abs(v) < 1e15 else repr(v)
    if head == "var":
        return f"v{args[0] + 1}"
    return f"({head} " + " ".join(
        format_expr(a) if isinstance(a, Expr) else str(a) for a in args) + ")"


def _tokenize(text: str):
    """(token, 1-based position) of each parenthesis and run of other
    non-space characters."""
    import re
    return [(m.group(), m.start() + 1)
            for m in re.finditer(r"[()]|[^\s()]+", text)]


def parse_expr(text: str) -> Expr:
    """Parse the prefix text form; raises ``DslError`` with a position."""
    tokens = _tokenize(text)
    if not tokens:
        raise DslError("empty expression", 1)
    expr, rest = _parse(tokens)
    if rest:
        raise DslError(f"unexpected trailing token {rest[0][0]!r}", rest[0][1])
    return expr


def _node(pos: int, head: str, *args) -> Expr:
    """``Expr(head, *args)``, its errors a ``DslError`` at ``pos``."""
    try:
        return Expr(head, *args)
    except (ValueError, TypeError) as err:
        raise DslError(str(err), pos) from None


def _atom(token: str, pos: int) -> Expr:
    if len(token) > 1 and token[0] == "v" and token[1:].isdigit():
        idx = int(token[1:])
        if idx < 1:
            raise DslError("variables are numbered from 1", pos)
        return Expr("var", idx - 1)
    try:
        value = float(token)
    except ValueError:
        raise DslError(f"unknown atom {token!r}", pos) from None
    return _node(pos, "const", value)


def _parse(tokens):
    token, pos = tokens[0]
    if token == ")":
        raise DslError("unexpected ')'", pos)
    if token != "(":
        return _atom(token, pos), tokens[1:]
    if len(tokens) < 2:
        raise DslError("unterminated '('", pos)
    head, head_pos = tokens[1]
    if head not in _OPERATORS:
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
                args.append(int(token))
            except ValueError:
                raise DslError("pow exponent must be an integer", tpos) from None
            rest = rest[1:]
            continue
        node, rest = _parse(rest)
        args.append(node)
    return _node(head_pos, head, *args), rest


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
    return CylFunction(dim=dim, directions=e[None, :], profile=Expr("var", 0))


def from_profile(profile: Expr, directions) -> CylFunction:
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    return CylFunction(dim=directions.shape[1], directions=directions,
                       profile=profile)
