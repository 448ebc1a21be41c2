"""Analytic parametric surfaces r(u, v). Each supplies its chart once, as
the jet (r, r_u, r_v, r_uu, r_uv, r_vv) in closed form, each vector a
3-tuple of component columns (a constant one may be a scalar); at
`order=1` the jet stops at (r, r_u, r_v). `geometry(u, v)` derives the
tangent basis, unit normal, area element and mean curvature column by
column and returns its vectors in that layout, broadcast to the shape of
(u, v); `order=1` evaluates the first-order jet and stops at the normal
and area element, all that the contour and area passes of
`curvint.contour` read. Those passes call the unchecked, unbroadcast core
`_geometry`, each after one domain check (`_checked_geometry` or its own).

Conventions, used consistently everywhere in this package:

* the unit normal is N = S1 x S2 / |S1 x S2| with S1 = dr/du, S2 = dr/dv;
* the second fundamental form is b_ab = (d^2 r / du^a du^b) . N;
* the mean curvature is the trace H = g^ab b_ab (sum of the principal
  curvatures, not their average).

Under this convention a sphere of radius R parameterized by colatitude and
longitude carries the outward normal and H = -2/R. The sign is pinned by
the contour identity in `curvint.contour` (exterior boundary normals make
both sides agree), not chosen by hand.

All evaluators accept scalars or broadcasting numpy arrays for (u, v).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .numerics import checked_kind, checked_real, column_cross, column_norm

__all__ = [
    "ParametricSurface",
    "Plane",
    "Sphere",
    "Cylinder",
    "Torus",
    "Catenoid",
    "Enneper",
    "MongeGraph",
    "saddle",
    "surface_from_name",
]

_DEGENERATE_TOL = 1e-12
_ZERO = (0.0, 0.0, 0.0)


def _dot(a, b):
    # the order einsum("...i,...i->...") sums a length-3 axis in, kept so
    # that H stays bitwise what the stacked-array code gave
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _columns(cols, shape):
    """A vector's three component columns, each an ndarray of shape shape
    (a column that is one already is kept as it is)."""
    return tuple(c if isinstance(c, np.ndarray) and c.shape == shape else np.broadcast_to(c, shape)
                 for c in cols)


def _mean_curvature(s1, s2, normal, ruu, ruv, rvv):
    """H = g^ab b_ab from the columns of the jet and the unit normal."""
    g11, g12, g22 = _dot(s1, s1), _dot(s1, s2), _dot(s2, s2)
    b11, b12, b22 = _dot(ruu, normal), _dot(ruv, normal), _dot(rvv, normal)
    return (g22 * b11 - 2.0 * g12 * b12 + g11 * b22) / (g11 * g22 - g12 * g12)


class ParametricSurface:
    """Base class. Subclasses supply jet(); everything else is derived.

    u_range/v_range bound the admissible parameter domain; a periodic
    coordinate accepts any finite value. `margin` keeps evaluation away
    from parameterization degeneracies of bounded coordinates.
    """

    name = "surface"
    u_range: tuple[float, float] = (-math.inf, math.inf)
    v_range: tuple[float, float] = (-math.inf, math.inf)
    u_periodic = False
    v_periodic = False
    margin = 0.0

    # -- subclass surface definition -------------------------------------

    def jet(self, u, v, order: int = 2) -> tuple[tuple, ...]:
        """(r, r_u, r_v, r_uu, r_uv, r_vv) at (u, v), each an (x, y, z)
        tuple of component columns; order=1 gives only (r, r_u, r_v) and
        evaluates no second derivative. No domain check."""
        raise NotImplementedError

    def position(self, u, v) -> np.ndarray:
        u, v = np.asarray(u, float), np.asarray(v, float)  # a Python float's ** rounds unlike numpy's
        return np.stack(_columns(self.jet(u, v, 1)[0], np.broadcast(u, v).shape), axis=-1)

    # -- domain handling --------------------------------------------------

    def _inside_1d(self, x, rng, periodic):
        if periodic:
            return np.isfinite(x)
        # an infinite end stays infinite
        return np.isfinite(x) & (x >= rng[0] + self.margin) & (x <= rng[1] - self.margin)

    def contains(self, u, v) -> bool:
        """Whether every (u, v) lies in the admissible domain, the surface
        margin inside the bounded edges."""
        ok = self._inside_1d(np.asarray(u, float), self.u_range, self.u_periodic)
        ok = ok & self._inside_1d(np.asarray(v, float), self.v_range, self.v_periodic)
        return bool(np.all(ok))

    def require_inside(self, u, v):
        if not self.contains(u, v):
            raise DomainError(
                f"parameter point outside the admissible domain of {self.name}"
            )

    # -- derived geometry ---------------------------------------------------

    def geometry(self, u, v, order: int = 2):
        """(position, s1, s2, normal, sqrt_g, mean_curvature), each vector a
        3-tuple of columns of shape np.broadcast(u, v).shape, some of them
        read-only views and a position column possibly u or v itself.
        order=1 evaluates the first-order jet and skips the fundamental
        forms; H is then None. Over `_checked_geometry` this adds the order
        check, the broadcast to that shape, and an EvaluationError, without
        numpy warnings, where a column is not finite (overflow)."""
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order}")
        shape = np.broadcast(u, v).shape
        with np.errstate(all="ignore"):
            *vectors, sqrt_g, mean = self._checked_geometry(u, v, order)
        scalars = (sqrt_g,) if mean is None else (sqrt_g, mean)
        if not all(np.isfinite(c).all() for c in (*scalars, *(c for x in vectors for c in x))):
            raise EvaluationError("surface geometry is not finite")
        # (..., sqrt_g, H) at order 2, (..., sqrt_g, None) at order 1
        return (*(_columns(x, shape) for x in vectors), *_columns(scalars, shape), None)[:6]

    def _checked_geometry(self, u, v, order: int):
        """The core `_geometry` on (u, v) as float arrays after one domain check."""
        u, v = np.asarray(u, float), np.asarray(v, float)
        self.require_inside(u, v)
        return self._geometry(u, v, order)

    def _geometry(self, u, v, order: int):
        """geometry() on float arrays u, v without the domain check: each
        column as the jet and the column arithmetic left it (a constant
        may be a scalar, a column varying along one axis keeps that
        axis's shape). The degeneracy refusal stays."""
        pos, s1, s2, *second = self.jet(u, v, order)
        cross = column_cross(s1, s2)
        sqrt_g = column_norm(cross)
        if np.any(sqrt_g < _DEGENERATE_TOL):
            raise DomainError(f"degenerate parameterization of {self.name}")
        normal = tuple(c / sqrt_g for c in cross)
        mean = _mean_curvature(s1, s2, normal, *second) if order == 2 else None
        return pos, s1, s2, normal, sqrt_g, mean


class Plane(ParametricSurface):
    """The z = 0 plane, r(u, v) = (u, v, 0)."""

    name = "plane"

    def jet(self, u, v, order=2):
        first = (u, v, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        return first if order == 1 else (*first, _ZERO, _ZERO, _ZERO)


class Sphere(ParametricSurface):
    """Radius-R sphere in colatitude/longitude coordinates (theta, phi).

    Poles are excluded by a small margin; the normal is outward and
    H = -2/R everywhere.
    """

    name = "sphere"
    u_range = (0.0, math.pi)
    v_periodic = True
    margin = 1e-9

    def __init__(self, radius: float):
        self.radius = checked_real(radius, "radius", 0.0, strict=True)

    def jet(self, u, v, order=2):
        rs, rc = self.radius * np.sin(u), self.radius * np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        x, y, xc, yc = rs * cv, rs * sv, rc * cv, rc * sv
        ny = -y
        first = (x, y, rc), (xc, yc, -rs), (ny, x, 0.0)
        if order == 1:
            return first
        nx = -x
        return (*first, (nx, ny, -rc), (-yc, xc, 0.0), (nx, ny, 0.0))


class Cylinder(ParametricSurface):
    """Radius-R circular cylinder, r(z, phi) = (R cos phi, R sin phi, z)."""

    name = "cylinder"
    v_periodic = True

    def __init__(self, radius: float):
        self.radius = checked_real(radius, "radius", 0.0, strict=True)

    def jet(self, u, v, order=2):
        rs, rc = self.radius * np.sin(v), self.radius * np.cos(v)
        first = (rc, rs, u), (0.0, 0.0, 1.0), (-rs, rc, 0.0)
        return first if order == 1 else (*first, _ZERO, _ZERO, (-rc, -rs, 0.0))


class Torus(ParametricSurface):
    """Torus of revolution; (theta, phi) run around the tube and the axis."""

    name = "torus"
    u_periodic = True
    v_periodic = True

    def __init__(self, major: float, minor: float):
        self.major = checked_real(major, "R", 0.0, strict=True)
        self.minor = checked_real(minor, "r", 0.0, strict=True)
        if not self.minor < self.major:
            raise ValueError("require 0 < minor < major radius")

    def jet(self, u, v, order=2):
        rs, rc = self.minor * np.sin(u), self.minor * np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        w = self.major + rc
        x, y, sc, ss = w * cv, w * sv, rs * cv, rs * sv
        nsc, ny = -sc, -y
        first = (x, y, rs), (nsc, -ss, rc), (ny, x, 0.0)
        if order == 1:
            return first
        return (*first, (-(rc * cv), -(rc * sv), -rs), (ss, nsc, 0.0), (-x, ny, 0.0))


class Catenoid(ParametricSurface):
    """Catenoid with waist parameter c, r(s, phi) = (c cosh(s/c) cos phi,
    c cosh(s/c) sin phi, s). Minimal: H = 0 identically."""

    name = "catenoid"
    u_range = (-2.0, 2.0)
    v_periodic = True

    def __init__(self, waist: float = 1.0):
        self.waist = checked_real(waist, "waist", 0.0, strict=True)

    def jet(self, u, v, order=2):
        c = self.waist
        s = u / c
        ch = np.cosh(s)
        rho, drho = c * ch, np.sinh(s)
        sv, cv = np.sin(v), np.cos(v)
        x, y, dx, dy = rho * cv, rho * sv, drho * cv, drho * sv
        first = (x, y, u), (dx, dy, 1.0), (-y, x, 0.0)
        if order == 1:
            return first
        ddrho = ch / c
        return (*first, (ddrho * cv, ddrho * sv, 0.0), (-dy, dx, 0.0), (-x, -y, 0.0))


class Enneper(ParametricSurface):
    """Enneper's minimal surface on [-1.5, 1.5]^2 (polynomial chart)."""

    name = "enneper"
    u_range = (-1.5, 1.5)
    v_range = (-1.5, 1.5)

    def jet(self, u, v, order=2):
        uu, vv, u2, v2 = u * u, v * v, 2.0 * u, 2.0 * v
        u2v, nv2 = u2 * v, -v2
        first = ((u - u ** 3 / 3.0 + u * v * v, v - v ** 3 / 3.0 + uu * v, uu - vv),
                 (1.0 - uu + vv, u2v, u2),
                 (u2v, 1.0 - vv + uu, nv2))
        if order == 1:
            return first
        return (*first, (-u2, v2, 2.0), (v2, u2, 0.0), (u2, nv2, -2.0))


class MongeGraph(ParametricSurface):
    """Graph surface z = f(x, y) over a rectangle; the caller supplies f
    and its first and second partials analytically (all must broadcast
    over numpy arrays; a constant partial may return a scalar). Raises
    ValueError for a range end that is no real number or is nan
    (checked_real; an end may be infinite), then for an empty rectangle."""

    name = "monge"

    def __init__(self, f: Callable, fx: Callable, fy: Callable,
                 fxx: Callable, fxy: Callable, fyy: Callable,
                 x_range: tuple[float, float], y_range: tuple[float, float],
                 name: str = "monge"):
        x0, x1, y0, y1 = (checked_real(ends[k], f"{axis}_range[{k}]", finite=False)
                          for axis, ends in (("x", x_range), ("y", y_range)) for k in (0, 1))
        if not (x0 < x1 and y0 < y1):
            raise ValueError("empty domain rectangle")
        self.f, self.fx, self.fy = f, fx, fy
        self.fxx, self.fxy, self.fyy = fxx, fxy, fyy
        self.u_range, self.v_range = (x0, x1), (y0, y1)
        self.name = name

    def jet(self, u, v, order=2):
        first = (u, v, self.f(u, v)), (1.0, 0.0, self.fx(u, v)), (0.0, 1.0, self.fy(u, v))
        if order == 1:
            return first
        return (*first,
                (0.0, 0.0, self.fxx(u, v)),
                (0.0, 0.0, self.fxy(u, v)),
                (0.0, 0.0, self.fyy(u, v)))


def saddle(extent: float = 2.0) -> MongeGraph:
    """The saddle graph z = x^2 - y^2 on [-extent, extent]^2."""
    extent = checked_real(extent, "extent", 0.0, strict=True)
    return MongeGraph(
        f=lambda x, y: x * x - y * y,
        fx=lambda x, y: 2.0 * x,
        fy=lambda x, y: -2.0 * y,
        fxx=lambda x, y: 2.0,
        fxy=lambda x, y: 0.0,
        fyy=lambda x, y: -2.0,
        x_range=(-extent, extent),
        y_range=(-extent, extent),
        name="saddle",
    )


# name -> its builder and the builder's parameters, in order, with defaults
_SURFACES = {"plane": (Plane, {}), "sphere": (Sphere, {"R": 1.0}), "cylinder": (Cylinder, {"R": 1.0}),
             "torus": (Torus, {"R": 2.0, "r": 0.5}), "catenoid": (Catenoid, {"c": 1.0}),
             "enneper": (Enneper, {}), "saddle": (saddle, {})}


def surface_from_name(name: str, **params) -> ParametricSurface:
    """CLI/test factory: the surface's builder in _SURFACES on its arguments
    (checked_kind); `bad parameters for surface '<name>': ...` for a value."""
    make, arguments = checked_kind(_SURFACES, "surface", name, params)
    try:
        return make(*arguments.values())
    except ValueError as exc:
        raise ValueError(f"bad parameters for surface '{name}': {exc}") from exc
