"""Analytic parametric surfaces r(u, v). Each supplies its chart once, as
the jet (r, r_u, r_v, r_uu, r_uv, r_vv) in closed form; the tangent basis,
unit normal, area element and mean curvature are derived from it.

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

from .errors import DomainError
from .numerics import checked_positive

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


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


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

    def jet(self, u, v) -> tuple[np.ndarray, ...]:
        """(r, r_u, r_v, r_uu, r_uv, r_vv) at (u, v); no domain check."""
        raise NotImplementedError

    def position(self, u, v) -> np.ndarray:
        return self.jet(u, v)[0]

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

    def geometry(self, u, v):
        """Vectorized evaluation; returns (position, s1, s2, normal,
        sqrt_g, mean_curvature) with a trailing axis of 3 on the vectors."""
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        self.require_inside(u, v)
        pos, s1, s2, ruu, ruv, rvv = self.jet(u, v)
        cross = np.cross(s1, s2)
        sqrt_g = np.linalg.norm(cross, axis=-1)
        if np.any(sqrt_g < _DEGENERATE_TOL):
            raise DomainError(f"degenerate parameterization of {self.name}")
        normal = cross / sqrt_g[..., None]
        g11 = _dot(s1, s1)
        g12 = _dot(s1, s2)
        g22 = _dot(s2, s2)
        b11 = _dot(ruu, normal)
        b12 = _dot(ruv, normal)
        b22 = _dot(rvv, normal)
        mean = (g22 * b11 - 2.0 * g12 * b12 + g11 * b22) / (g11 * g22 - g12 * g12)
        return pos, s1, s2, normal, sqrt_g, mean


def _stack(x, y, z):
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


class Plane(ParametricSurface):
    """The z = 0 plane, r(u, v) = (u, v, 0)."""

    name = "plane"

    def jet(self, u, v):
        one, zero = np.ones_like(u), np.zeros_like(u)
        z3 = _stack(zero, zero, zero)
        return (_stack(u, v, zero),
                _stack(one, zero, zero),
                _stack(zero, one, zero),
                z3, z3, z3)


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
        self.radius = checked_positive(radius, "radius")

    def jet(self, u, v):
        rs, rc = self.radius * np.sin(u), self.radius * np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        zero = np.zeros_like(u)
        return (_stack(rs * cv, rs * sv, rc),
                _stack(rc * cv, rc * sv, -rs),
                _stack(-(rs * sv), rs * cv, zero),
                _stack(-(rs * cv), -(rs * sv), -rc),
                _stack(-(rc * sv), rc * cv, zero),
                _stack(-(rs * cv), -(rs * sv), zero))


class Cylinder(ParametricSurface):
    """Radius-R circular cylinder, r(z, phi) = (R cos phi, R sin phi, z)."""

    name = "cylinder"
    v_periodic = True

    def __init__(self, radius: float):
        self.radius = checked_positive(radius, "radius")

    def jet(self, u, v):
        rs, rc = self.radius * np.sin(v), self.radius * np.cos(v)
        zero, one = np.zeros_like(u), np.ones_like(u)
        z3 = _stack(zero, zero, zero)
        return (_stack(rc, rs, u),
                _stack(zero, zero, one),
                _stack(-rs, rc, zero),
                z3, z3,
                _stack(-rc, -rs, zero))


class Torus(ParametricSurface):
    """Torus of revolution; (theta, phi) run around the tube and the axis."""

    name = "torus"
    u_periodic = True
    v_periodic = True

    def __init__(self, major: float, minor: float):
        major, minor = checked_positive(major, "R"), checked_positive(minor, "r")
        if not 0 < minor < major:
            raise ValueError("require 0 < minor < major radius")
        self.major = major
        self.minor = minor

    def jet(self, u, v):
        rs, rc = self.minor * np.sin(u), self.minor * np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        w = self.major + rc
        zero = np.zeros_like(u)
        return (_stack(w * cv, w * sv, rs),
                _stack(-(rs * cv), -(rs * sv), rc),
                _stack(-(w * sv), w * cv, zero),
                _stack(-(rc * cv), -(rc * sv), -rs),
                _stack(rs * sv, -(rs * cv), zero),
                _stack(-(w * cv), -(w * sv), zero))


class Catenoid(ParametricSurface):
    """Catenoid with waist parameter c, r(s, phi) = (c cosh(s/c) cos phi,
    c cosh(s/c) sin phi, s). Minimal: H = 0 identically."""

    name = "catenoid"
    u_range = (-2.0, 2.0)
    v_periodic = True

    def __init__(self, waist: float = 1.0):
        self.waist = checked_positive(waist, "waist")

    def jet(self, u, v):
        c = self.waist
        ch = np.cosh(u / c)
        rho, drho, ddrho = c * ch, np.sinh(u / c), ch / c
        sv, cv = np.sin(v), np.cos(v)
        zero = np.zeros_like(u)
        return (_stack(rho * cv, rho * sv, u),
                _stack(drho * cv, drho * sv, np.ones_like(u)),
                _stack(-(rho * sv), rho * cv, zero),
                _stack(ddrho * cv, ddrho * sv, zero),
                _stack(-(drho * sv), drho * cv, zero),
                _stack(-(rho * cv), -(rho * sv), zero))


class Enneper(ParametricSurface):
    """Enneper's minimal surface on [-1.5, 1.5]^2 (polynomial chart)."""

    name = "enneper"
    u_range = (-1.5, 1.5)
    v_range = (-1.5, 1.5)

    def jet(self, u, v):
        uu, vv, u2, v2 = u * u, v * v, 2.0 * u, 2.0 * v
        two, zero = np.full_like(u, 2.0), np.zeros_like(u)
        return (_stack(u - u ** 3 / 3.0 + u * v * v, v - v ** 3 / 3.0 + uu * v, uu - vv),
                _stack(1.0 - uu + vv, u2 * v, u2),
                _stack(u2 * v, 1.0 - vv + uu, -v2),
                _stack(-u2, v2, two),
                _stack(v2, u2, zero),
                _stack(u2, -v2, -two))


class MongeGraph(ParametricSurface):
    """Graph surface z = f(x, y) over a rectangle; the caller supplies f
    and its first and second partials analytically (all must broadcast
    over numpy arrays)."""

    name = "monge"

    def __init__(self, f: Callable, fx: Callable, fy: Callable,
                 fxx: Callable, fxy: Callable, fyy: Callable,
                 x_range: tuple[float, float], y_range: tuple[float, float],
                 name: str = "monge"):
        if not (x_range[0] < x_range[1] and y_range[0] < y_range[1]):
            raise ValueError("empty domain rectangle")
        self.f, self.fx, self.fy = f, fx, fy
        self.fxx, self.fxy, self.fyy = fxx, fxy, fyy
        self.u_range = (float(x_range[0]), float(x_range[1]))
        self.v_range = (float(y_range[0]), float(y_range[1]))
        self.name = name

    def jet(self, u, v):
        one, zero = np.ones_like(u), np.zeros_like(u)
        return (_stack(u, v, self.f(u, v)),
                _stack(one, zero, self.fx(u, v)),
                _stack(zero, one, self.fy(u, v)),
                _stack(zero, zero, self.fxx(u, v)),
                _stack(zero, zero, self.fxy(u, v)),
                _stack(zero, zero, self.fyy(u, v)))


def saddle(extent: float = 2.0) -> MongeGraph:
    """The saddle graph z = x^2 - y^2 on [-extent, extent]^2."""
    return MongeGraph(
        f=lambda x, y: x * x - y * y,
        fx=lambda x, y: 2.0 * x,
        fy=lambda x, y: -2.0 * y,
        fxx=lambda x, y: np.full_like(np.asarray(x, float), 2.0),
        fxy=lambda x, y: np.zeros_like(np.asarray(x, float)),
        fyy=lambda x, y: np.full_like(np.asarray(x, float), -2.0),
        x_range=(-extent, extent),
        y_range=(-extent, extent),
        name="saddle",
    )


def surface_from_name(name: str, **params) -> ParametricSurface:
    """CLI/test factory: build a surface from its name and keyword
    parameters (R, r, c as applicable)."""
    key = name.strip().lower()
    try:
        if key == "plane":
            return Plane()
        if key == "sphere":
            return Sphere(radius=params.get("R", 1.0))
        if key == "cylinder":
            return Cylinder(radius=params.get("R", 1.0))
        if key == "torus":
            return Torus(major=params.get("R", 2.0), minor=params.get("r", 0.5))
        if key == "catenoid":
            return Catenoid(waist=params.get("c", 1.0))
        if key == "enneper":
            return Enneper()
        if key == "saddle":
            return saddle()
    except ValueError as exc:
        raise ValueError(f"bad parameters for surface '{name}': {exc}") from exc
    raise ValueError(f"unknown surface '{name}'")

