"""Patch/contour integrals on analytic surfaces.

For a patch P of a surface with boundary contour G traversed
counterclockwise in parameter space, this module evaluates both sides of

    integral_P  N * H dS   =   integral_G  n dG

(N unit surface normal, H mean curvature, n exterior in-surface normal of
the contour) and the shrinking-patch limit of the right-hand side divided
by patch area, which recovers N * H pointwise.

Each region describes itself once. Its boundary is `pieces` curves (a
rectangle's four edges, a disk's circle): piece(k, t) gives the points
(u, v), velocities d(u, v)/dt and parameter-space outward normal at t in
[0, 1]. interior(rule) gives the interior nodes (U, V), the weights along
each node axis and the Jacobian of the map onto the region (1 on a
rectangle's tensor grid, r on a disk's polar grid). The contour side is
one pass over the pieces, the patch side one geometry evaluation.

The exterior normal is computed as t x N from the curve tangent t; with
counterclockwise parameter traversal this always points out of the patch
(asserted by the test suite, not assumed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, DomainError
from .numerics import QuadratureRule, default_rule, panel_nodes
from .surfaces import ParametricSurface

__all__ = [
    "RectRegion",
    "DiskRegion",
    "BoundaryPoint",
    "IdentityReport",
    "LimitEstimate",
    "boundary_point",
    "lhs_integral",
    "rhs_integral",
    "region_area",
    "contour_length",
    "verify_identity",
    "shrinking_limit",
]

_PERIOD = 2.0 * math.pi  # all periodic coordinates in this package
_TANGENT_TOL = 1e-12


class _Region:
    """The boundary parameterization shared by the region types."""

    def boundary_param(self, s: float):
        """Point, velocity d(u, v)/ds and outward normal at s in [0, 1);
        piece k covers s in [k, k + 1) / pieces."""
        s = float(s) % 1.0
        k = min(int(s * self.pieces), self.pieces - 1)
        point, (du, dv), outward = self.piece(k, s * self.pieces - k)
        return point, (self.pieces * du, self.pieces * dv), outward


_RECT_OUTWARD = ((0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))


@dataclass(frozen=True)
class RectRegion(_Region):
    """Axis-aligned rectangle [u0, u1] x [v0, v1] in parameter space,
    boundary traversed counterclockwise."""

    u0: float
    u1: float
    v0: float
    v1: float

    pieces = 4  # bottom, right, top, left

    def __post_init__(self):
        if not (self.u1 > self.u0 and self.v1 > self.v0):
            raise ValueError("rectangle must have positive extent")

    @property
    def label(self) -> str:
        # comma-free so the label stays one CSV field
        return f"rect[{self.u0:g}:{self.u1:g}]x[{self.v0:g}:{self.v1:g}]"

    def piece(self, k: int, t):
        c = ((self.u0, self.v0), (self.u1, self.v0), (self.u1, self.v1), (self.u0, self.v1))
        (a0, a1), (b0, b1) = c[k], c[(k + 1) % 4]
        du, dv = b0 - a0, b1 - a1
        one = np.ones_like(t)
        return (a0 + t * du, a1 + t * dv), (du * one, dv * one), _RECT_OUTWARD[k]

    def interior(self, rule: QuadratureRule):
        """Tensor-product grid, Jacobian 1."""
        xu, wu = panel_nodes(self.u0, self.u1, rule)
        xv, wv = panel_nodes(self.v0, self.v1, rule)
        U = np.broadcast_to(xu[:, None], (len(xu), len(xv)))
        V = np.broadcast_to(xv[None, :], (len(xu), len(xv)))
        return U, V, wu, wv, 1.0

    def validate_on(self, surface: ParametricSurface):
        for (lo, hi), periodic in (((self.u0, self.u1), surface.u_periodic),
                                   ((self.v0, self.v1), surface.v_periodic)):
            if periodic and hi - lo > _PERIOD + 1e-12:
                raise DomainError("region spans more than one period")
        if not (surface.contains(self.u0, self.v0) and surface.contains(self.u1, self.v1)):
            raise DomainError(f"region not inside the domain of {surface.name}")


@dataclass(frozen=True)
class DiskRegion(_Region):
    """Disk of radius rho around (uc, vc) in parameter space, boundary
    traversed counterclockwise."""

    uc: float
    vc: float
    rho: float

    pieces = 1

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("disk radius must be positive")

    @property
    def label(self) -> str:
        return f"disk({self.uc:g}:{self.vc:g};{self.rho:g})"

    def piece(self, k: int, t):
        a = 2.0 * np.pi * t
        cos, sin = np.cos(a), np.sin(a)
        w = 2.0 * np.pi * self.rho
        return (self.uc + self.rho * cos, self.vc + self.rho * sin), (-w * sin, w * cos), (cos, sin)

    def interior(self, rule: QuadratureRule):
        """Polar grid (radius, angle), Jacobian r."""
        xr, wr = panel_nodes(0.0, self.rho, rule)
        xt, wt = panel_nodes(0.0, 2.0 * math.pi, rule)
        U = self.uc + xr[:, None] * np.cos(xt)[None, :]
        V = self.vc + xr[:, None] * np.sin(xt)[None, :]
        return U, V, wr, wt, xr[:, None]

    def validate_on(self, surface: ParametricSurface):
        if (surface.u_periodic or surface.v_periodic) and self.rho > _PERIOD / 2:
            raise DomainError("disk wider than one period")
        corners = [(self.uc - self.rho, self.vc - self.rho),
                   (self.uc + self.rho, self.vc + self.rho)]
        for u, v in corners:
            if not surface.contains(u, v):
                raise DomainError(f"region not inside the domain of {surface.name}")


@dataclass(frozen=True)
class BoundaryPoint:
    """Contour sample: image position, unit curve tangent, unit exterior
    in-surface normal, and |d(image)/ds| for the s in [0, 1) boundary
    parameter."""

    position: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    speed: float


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the patch/contour identity plus error metrics and
    the patch area."""

    lhs: np.ndarray
    rhs: np.ndarray
    abs_err: float
    rel_err: float
    area: float


@dataclass(frozen=True)
class LimitEstimate:
    """Shrinking-disk study: per-radius contour averages against the
    pointwise target N * H at the disk center."""

    radii: np.ndarray
    estimates: np.ndarray  # shape (len(radii), 3)
    target: np.ndarray
    errors: np.ndarray
    observed_order: float


def _frame(surface, u, v, du, dv):
    """Image position, unit tangent t, unit exterior normal t x N and
    speed of the contour through (u, v) with parameter velocity (du, dv);
    scalars or arrays of one shape."""
    pos, s1, s2, normal, _, _ = surface.geometry(u, v)
    d = du[..., None] * s1 + dv[..., None] * s2
    speed = np.linalg.norm(d, axis=-1)
    if np.any(speed < _TANGENT_TOL):
        raise ContourError("degenerate contour tangent")
    tangent = d / speed[..., None]
    n = np.cross(tangent, normal)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return pos, tangent, n, speed


def boundary_point(surface: ParametricSurface, region, s: float) -> BoundaryPoint:
    """Evaluate the oriented boundary of `region` at parameter s in [0, 1)."""
    region.validate_on(surface)
    (u, v), (du, dv), _ = region.boundary_param(s)
    pos, tangent, n, speed = _frame(surface, u, v, du, dv)
    return BoundaryPoint(pos, tangent, n, float(speed))


def _contour(surface, region, rule):
    """(contour integral of the exterior normal, arc length), one
    composite rule per boundary piece."""
    region.validate_on(surface)
    t, w = panel_nodes(0.0, 1.0, rule)
    rhs, length = None, 0.0
    for k in range(region.pieces):
        (u, v), (du, dv), _ = region.piece(k, t)
        _, _, n, speed = _frame(surface, u, v, du, dv)
        part = ((w * speed)[:, None] * n).sum(axis=0)
        rhs = part if rhs is None else rhs + part  # a None start keeps -0.0
        length += float(w @ speed)
    return rhs, length


def _patch(surface, region, rule):
    """(patch integral of N * H, area) from one geometry evaluation on the
    region's interior nodes; the caller validates the region."""
    U, V, w1, w2, jac = region.interior(rule)
    _, _, _, normal, sqrt_g, mean = surface.geometry(U, V)
    field = normal * (mean * sqrt_g)[..., None] * np.expand_dims(jac, -1)
    return (np.einsum("i,j,ijk->k", w1, w2, field),
            float(np.einsum("i,j,ij->", w1, w2, sqrt_g * jac)))


def rhs_integral(surface: ParametricSurface, region, rule: QuadratureRule | None = None) -> np.ndarray:
    """Contour integral of the exterior in-surface normal."""
    return _contour(surface, region, rule or default_rule())[0]


def contour_length(surface: ParametricSurface, region, rule: QuadratureRule | None = None) -> float:
    """Arc length of the region boundary."""
    return _contour(surface, region, rule or default_rule())[1]


def lhs_integral(surface: ParametricSurface, region, rule: QuadratureRule | None = None) -> np.ndarray:
    """Patch integral of N * H over the region."""
    region.validate_on(surface)
    return _patch(surface, region, rule or default_rule())[0]


def region_area(surface: ParametricSurface, region, rule: QuadratureRule | None = None) -> float:
    """Surface area of the region (quadrature of the area element)."""
    region.validate_on(surface)
    return _patch(surface, region, rule or default_rule())[1]


def verify_identity(surface: ParametricSurface, region,
                    rule: QuadratureRule | None = None) -> IdentityReport:
    """Evaluate both integrals independently and report their mismatch.

    rel_err is abs_err / max(|lhs|, |rhs|, 1e-30); it is only meaningful
    when the shared true value is away from zero (on minimal surfaces use
    the contour integral against the contour length instead).
    """
    rule = rule or default_rule()
    rhs = rhs_integral(surface, region, rule)  # validates the region
    lhs, area = _patch(surface, region, rule)
    abs_err = float(np.linalg.norm(lhs - rhs))
    rel_err = abs_err / max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-30)
    return IdentityReport(lhs, rhs, abs_err, rel_err, area)


def shrinking_limit(surface: ParametricSurface, center: tuple[float, float],
                    radii, rule: QuadratureRule | None = None) -> LimitEstimate:
    """Average the contour integral over parameter disks of decreasing
    radius and compare with N * H at the center.

    observed_order is the least-squares slope of log error against log
    radius (nan when an error underflows the meaningful range, e.g. on a
    plane where every estimate is exactly zero).
    """
    rule = rule or default_rule()
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    if np.any(radii <= 0) or not np.all(np.diff(radii) < 0):
        raise ValueError("radii must be positive and strictly decreasing")
    uc, vc = float(center[0]), float(center[1])
    _, _, _, normal, _, mean = surface.geometry(uc, vc)
    target = normal * mean
    estimates = np.empty((len(radii), 3))
    for i, rho in enumerate(radii):
        disk = DiskRegion(uc, vc, float(rho))
        # rhs_integral validates the disk for the area pass as well
        estimates[i] = rhs_integral(surface, disk, rule) / _patch(surface, disk, rule)[1]
    errors = np.linalg.norm(estimates - target[None, :], axis=1)
    if np.all(errors > 1e-14):
        observed_order = float(np.polyfit(np.log(radii), np.log(errors), 1)[0])
    else:
        observed_order = float("nan")
    return LimitEstimate(radii, estimates, target, errors, observed_order)
