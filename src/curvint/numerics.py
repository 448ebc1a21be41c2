"""Scalar/vector numerics: composite Gauss-Legendre quadrature, central
differences, the column cross product and norm, and the three argument
gates of every entry point: checked_count, checked_real and checked_kind.

All quantities are 64-bit floats; 3-vectors are (3,) arrays or 3-tuples of columns.
"""

from __future__ import annotations

import contextlib
import math
import operator
from collections import namedtuple
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import EvaluationError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "default_rule",
    "panel_nodes",
    "central_gradient",
]


class QuadratureRule(namedtuple("QuadratureRule", "nodes weights panels")):
    """Composite Gauss-Legendre rule.

    nodes/weights live on the reference interval [-1, 1]; `panels` equal
    subintervals are used when integrating. Raises ValueError for nodes
    or weights that do not make such a rule, then for panels that is no
    integer >= 1 (checked_count). It keeps read-only copies of both arrays.
    """

    __slots__ = ()

    def __new__(cls, nodes: np.ndarray, weights: np.ndarray, panels: int = 1):
        nodes = np.array(nodes, dtype=float)  # copies: the caller's arrays stay writable
        weights = np.array(weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] <= -1.0 or nodes[-1] >= 1.0:
            raise ValueError("nodes must lie strictly inside [-1, 1]")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 2.0) > 1e-12:
            raise ValueError("weights must sum to 2")
        panels = checked_count(panels, "panels", 1)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return super().__new__(cls, nodes, weights, panels)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace is gated too


def _legendre(n: int, x: float) -> tuple[float, float]:
    # P_n(x) and P_n'(x) by the three-term recurrence; |x| < 1 required
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(n: int, panels: int = 1) -> QuadratureRule:
    """Build an n-point Gauss-Legendre rule by Newton iteration on the
    Legendre recurrence (no stored tables), with `panels` panels.

    Roots are polished to a 1e-15 update tolerance and mirrored so the
    rule is exactly symmetric; they are computed once for each n. Raises
    ValueError unless n is an integer >= 1 (checked_count), then as
    QuadratureRule does for panels.
    """
    return QuadratureRule(*_gauss_nodes(checked_count(n, "node count n", 1)), panels)


@lru_cache(maxsize=None)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes = np.empty(n)
    weights = np.empty(n)
    for i in range((n + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-15:
                break
        p, dp = _legendre(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes[i], weights[i] = -abs(x), w
        nodes[n - 1 - i], weights[n - 1 - i] = abs(x), w
    if n % 2 == 1:
        nodes[n // 2] = 0.0
    return nodes, weights


def default_rule() -> QuadratureRule:
    """Rule used when none is given: 16 nodes, 8 panels."""
    return gauss_legendre(16, panels=8)


def panel_nodes(a: float, b: float, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and weights of `rule` mapped onto [a, b], all panels
    concatenated. Weights sum to b - a."""
    edges = np.linspace(a, b, rule.panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * rule.nodes[None, :]).ravel()
    w = (half[:, None] * rule.weights[None, :]).ravel()
    return x, w


def checked_count(n, name: str, low: int, high: float = math.inf) -> int:
    """n as an int, or a ValueError naming it unless it is an integer
    (operator.index decides, and a bool is refused) from low to high."""
    with contextlib.suppress(TypeError):
        if not isinstance(n, (bool, np.bool_)) and low <= operator.index(n) <= high:
            return operator.index(n)
    bound = f">= {low}" if high == math.inf else f"from {low} to {high}"
    raise ValueError(f"{name} must be an integer {bound}, got {n!r}")


def checked_real(x, name: str, low: float = -math.inf, strict: bool = False,
                 finite: bool = True) -> float:
    """x as a float, or a ValueError naming it unless it is a real number
    (an int, float, or numpy integer or floating scalar or 0-d array, but
    no bool), then if it is nan, or infinite while `finite` is set, then
    unless >= low (> low if strict)."""
    a = np.asarray(x)
    if a.ndim or a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {x!r}")
    value = float(x)
    if math.isnan(value) or finite and math.isinf(value):
        raise ValueError(f"{name} must be {'finite' if finite else 'a number'}, got {value}")
    if value < low or strict and value == low:
        rule = (f"exceed {low:g}" if strict else f"be at least {low:g}") if low else (
            "be positive" if strict else "be nonnegative")
        raise ValueError(f"{name} must {rule}, got {value}")
    return value


def checked_kind(kinds: dict, family: str, kind: str, params: dict):
    """(builder, arguments) of `kind` in the table kinds of each kind's
    builder and its parameters, in order, with defaults: those defaults
    with params laid over them, uncast. Raises ValueError for an unknown
    kind, then for the first parameter that it does not take."""
    key = kind.strip().lower()
    if key not in kinds:
        raise ValueError(f"unknown {family} '{kind}'")
    make, defaults = kinds[key]
    for name in params:
        if name not in defaults:
            raise ValueError(f"{family} '{key}' takes no {name}")
    return make, {**defaults, **params}


def column_cross(a, b) -> list:
    """a x b of coordinate columns a[k], b[k], bitwise equal to np.cross."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def column_norm(x) -> np.ndarray:  # in np.linalg.norm(axis=1)'s order: bitwise equal to it
    return np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])


def central_gradient(f: Callable[[np.ndarray], float], x, h: float) -> np.ndarray:
    """Component-wise central difference (f(x + h e) - f(x - h e)) / 2h
    of a scalar function of a 3-vector."""
    h = checked_real(h, "step h", 0.0, strict=True)
    x = np.asarray(x, dtype=float)
    out = np.empty(3)
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        fp = f(x + step)
        fm = f(x - step)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise EvaluationError("function is not finite", where=tuple(x.tolist()))
        out[k] = (fp - fm) / (2.0 * h)
    return out
