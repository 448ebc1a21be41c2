"""Patch/contour integrals on analytic surfaces.

For a patch P of a surface with boundary contour G traversed
counterclockwise in parameter space, this module evaluates both sides of

    integral_P  N * H dS   =   integral_G  n dG

(N unit surface normal, H mean curvature, n exterior in-surface normal of
the contour) and the shrinking-patch limit of the right-hand side divided
by patch area, which recovers N * H pointwise.

Each region describes itself once. Its boundary is `pieces` curves (a
rectangle's four edges, a disk's circle): piece(k, t) gives the points
(u, v) and velocities d(u, v)/dt at t in [0, 1]. interior(rule) gives
nodes U, V that broadcast together, the weights along each node axis and
the Jacobian of the map onto the region (1 on a rectangle's two axes, r
on a disk's polar grid). validate_on, one for all regions, checks its box
(u0, u1, v0, v1), a rectangle's corners or a disk's bounding box, against
a surface's domain. Both sides work on the columns of the surface's
geometry core, each pass after one domain check of all its nodes: one
first-order core call on the nodes of all the pieces, and one core call
per panel row of the interior (a panel of the first node axis), whose
results fill the full-grid integrands. A non-finite side (an
overflowing surface) raises EvaluationError.

The exterior normal is computed as t x N from the curve tangent t; with
counterclockwise parameter traversal this always points out of the patch
(asserted by the test suite, not assumed).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import ContourError, DomainError, EvaluationError
from .numerics import (QuadratureRule, checked_real, column_cross, column_norm, default_rule,
                       panel_nodes)
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

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace is gated too

    def boundary_param(self, s: float):
        """Point and velocity d(u, v)/ds at s in [0, 1); piece k covers s
        in [k, k + 1) / pieces."""
        s = checked_real(s, "boundary parameter s") % 1.0
        k = min(int(s * self.pieces), self.pieces - 1)
        point, (du, dv) = self.piece(k, s * self.pieces - k)
        return point, (self.pieces * du, self.pieces * dv)

    def validate_on(self, surface: ParametricSurface):
        """DomainError if the box spans more than one period of a periodic
        coordinate, then unless its corners lie in the surface's domain."""
        u0, u1, v0, v1 = self.box
        for lo, hi, periodic in ((u0, u1, surface.u_periodic), (v0, v1, surface.v_periodic)):
            if periodic and hi - lo > _PERIOD + 1e-12:
                raise DomainError("region spans more than one period")
        if not surface.contains([u0, u1], [v0, v1]):
            raise DomainError(f"region not inside the domain of {surface.name}")


class RectRegion(_Region, namedtuple("RectRegion", "u0 u1 v0 v1")):
    """Axis-aligned rectangle [u0, u1] x [v0, v1] in parameter space,
    boundary traversed counterclockwise."""

    __slots__ = ()
    pieces = 4  # bottom, right, top, left
    box = property(tuple)  # the fields are the corners

    def __new__(cls, u0: float, u1: float, v0: float, v1: float):
        u0, u1, v0, v1 = (checked_real(x, f"rectangle corner {corner}")
                          for x, corner in zip((u0, u1, v0, v1), cls._fields))
        if not (u1 > u0 and v1 > v0):
            raise ValueError("rectangle must have positive extent")
        return super().__new__(cls, u0, u1, v0, v1)

    @property
    def label(self) -> str:
        # comma-free so the label stays one CSV field
        return f"rect[{self.u0:g}:{self.u1:g}]x[{self.v0:g}:{self.v1:g}]"

    def piece(self, k: int, t):
        c = ((self.u0, self.v0), (self.u1, self.v0), (self.u1, self.v1), (self.u0, self.v1))
        (a0, a1), (b0, b1) = c[k], c[(k + 1) % 4]
        du, dv = b0 - a0, b1 - a1
        one = np.ones_like(t)
        return (a0 + t * du, a1 + t * dv), (du * one, dv * one)

    def interior(self, rule: QuadratureRule):
        """Tensor-product grid, Jacobian 1."""
        xu, wu = panel_nodes(self.u0, self.u1, rule)
        xv, wv = panel_nodes(self.v0, self.v1, rule)
        return xu[:, None], xv[None, :], wu, wv, 1.0


class DiskRegion(_Region, namedtuple("DiskRegion", "uc vc rho")):
    """Disk of radius rho around (uc, vc) in parameter space, boundary
    traversed counterclockwise; its box is its bounding box."""

    __slots__ = ()
    pieces = 1

    def __new__(cls, uc: float, vc: float, rho: float):
        return super().__new__(cls, checked_real(uc, "disk center uc"),
                               checked_real(vc, "disk center vc"),
                               checked_real(rho, "disk radius", 0.0, strict=True))

    @property
    def label(self) -> str:
        return f"disk({self.uc:g}:{self.vc:g};{self.rho:g})"

    box = property(lambda d: (d.uc - d.rho, d.uc + d.rho, d.vc - d.rho, d.vc + d.rho))

    def piece(self, k: int, t):
        a = 2.0 * np.pi * t
        cos, sin = np.cos(a), np.sin(a)
        w = 2.0 * np.pi * self.rho
        return (self.uc + self.rho * cos, self.vc + self.rho * sin), (-w * sin, w * cos)

    def interior(self, rule: QuadratureRule):
        """Polar grid (radius, angle), Jacobian r."""
        xr, wr = panel_nodes(0.0, self.rho, rule)
        xt, wt = panel_nodes(0.0, 2.0 * math.pi, rule)
        r = xr[:, None]
        return self.uc + r * np.cos(xt), self.vc + r * np.sin(xt), wr, wt, r


class BoundaryPoint(NamedTuple):
    """Contour sample: image position, unit curve tangent, unit exterior
    in-surface normal, and |d(image)/ds| for the s in [0, 1) boundary
    parameter."""

    position: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    speed: float


class IdentityReport(NamedTuple):
    """Both sides of the patch/contour identity plus error metrics and
    the patch area."""

    lhs: np.ndarray
    rhs: np.ndarray
    abs_err: float
    rel_err: float
    area: float


class LimitEstimate(NamedTuple):
    """Shrinking-disk study: per-radius contour averages against the
    pointwise target N * H at the disk center."""

    radii: np.ndarray
    estimates: np.ndarray  # shape (len(radii), 3)
    target: np.ndarray
    errors: np.ndarray
    observed_order: float


def _frame(surface, u, v, du, dv):
    """Image position, unit tangent t and unit exterior normal t x N as
    component columns, and the speed of the contour through (u, v) with
    parameter velocity (du, dv); scalars or arrays of one shape."""
    pos, s1, s2, normal, _, _ = surface._checked_geometry(u, v, 1)
    d = [du * a + dv * b for a, b in zip(s1, s2)]
    speed = column_norm(d)
    if np.any(speed < _TANGENT_TOL):
        raise ContourError("degenerate contour tangent")
    tangent = [c / speed for c in d]
    n = column_cross(tangent, normal)
    length = column_norm(n)
    return pos, tangent, [c / length for c in n], speed


def boundary_point(surface: ParametricSurface, region, s: float) -> BoundaryPoint:
    """Evaluate the oriented boundary of `region` at parameter s in [0, 1);
    EvaluationError where the surface overflows there."""
    region.validate_on(surface)
    (u, v), (du, dv) = region.boundary_param(s)
    with np.errstate(all="ignore"):
        *vectors, speed = _frame(surface, u, v, du, dv)
    pos, tangent, n = map(np.stack, vectors)
    _finite("boundary point", np.hstack([pos, tangent, n, speed]))
    return BoundaryPoint(pos, tangent, n, float(speed))


def _finite(name: str, value):
    if not np.isfinite(value).all():
        raise EvaluationError(f"{name} is not finite")
    return value


def _contour(surface, region, rule):
    """(contour integral of the exterior normal, arc length), one
    composite rule per boundary piece, all pieces framed by one geometry
    call on their concatenated nodes."""
    region.validate_on(surface)
    t, w = panel_nodes(0.0, 1.0, rule or default_rule())
    pieces = [region.piece(k, t) for k in range(region.pieces)]
    # u, v, du, dv, each concatenated over the pieces
    nodes = [np.concatenate(c) for c in zip(*((*x, *dx) for x, dx in pieces))]
    rhs, length = None, 0.0
    with np.errstate(all="ignore"):
        _, _, n, speed = _frame(surface, *nodes)
        n = np.stack(n, axis=-1)
        for k in range(region.pieces):
            piece = slice(k * len(t), (k + 1) * len(t))
            part = ((w * speed[piece])[:, None] * n[piece]).sum(axis=0)
            rhs = part if rhs is None else rhs + part  # a None start keeps -0.0
            length += float(w @ speed[piece])
    return rhs, length


def _patch(surface, region, rule, order=2):
    """(patch integral of N * H, area) over the region's interior nodes,
    (None, area) at order=1; the caller validates the region.

    The nodes get one domain check, then the geometry core is evaluated
    one panel of the first node axis at a time (an axis of length 1 is
    not sliced, so a rectangle's stays two axes), and each block's area
    element and N * H field are written, one component at a time, into
    full-grid arrays that one einsum each reduces. The block's values are
    elementwise, so the integrals do not depend on the block size, and
    its temporaries stay a panel row in size."""
    rule = rule or default_rule()
    U, V, w1, w2, jac = region.interior(rule)
    surface.require_inside(U, V)
    shape = np.broadcast(U, V).shape
    d_area = np.empty(shape)
    field = np.empty(shape + (3,)) if order == 2 else None
    rows = len(rule.nodes)
    with np.errstate(all="ignore"):
        for start in range(0, shape[0], rows):
            block = slice(start, start + rows)
            u, v, j = (x[block] if np.ndim(x) and len(x) > 1 else x for x in (U, V, jac))
            _, _, _, normal, sqrt_g, mean = surface._geometry(u, v, order)
            d_area[block] = sqrt_g * j
            if order == 2:
                h = mean * sqrt_g
                for k in range(3):
                    np.multiply(normal[k] * h, j, out=field[block][..., k])
        area = float(np.einsum("i,j,ij->", w1, w2, d_area))
        return (None if field is None else np.einsum("i,j,ijk->k", w1, w2, field)), area


def rhs_integral(surface: ParametricSurface, region, rule: QuadratureRule | None = None) -> np.ndarray:
    """Contour integral of the exterior in-surface normal."""
    return _finite("contour integral", _contour(surface, region, rule)[0])


def contour_length(surface: ParametricSurface, region, rule: QuadratureRule | None = None) -> float:
    """Arc length of the region boundary."""
    return _finite("contour length", _contour(surface, region, rule)[1])


def lhs_integral(surface: ParametricSurface, region, rule: QuadratureRule | None = None) -> np.ndarray:
    """Patch integral of N * H over the region."""
    region.validate_on(surface)
    return _finite("patch integral", _patch(surface, region, rule)[0])


def region_area(surface: ParametricSurface, region, rule: QuadratureRule | None = None) -> float:
    """Surface area of the region (quadrature of the area element)."""
    region.validate_on(surface)
    return _finite("patch area", _patch(surface, region, rule, order=1)[1])


def verify_identity(surface: ParametricSurface, region,
                    rule: QuadratureRule | None = None) -> IdentityReport:
    """Evaluate both integrals independently and report their mismatch.

    rel_err is abs_err / max(|lhs|, |rhs|, 1e-30); it is only meaningful
    when the shared true value is away from zero (on minimal surfaces use
    the contour integral against the contour length instead).
    """
    rhs = rhs_integral(surface, region, rule)  # validates the region
    lhs, area = map(_finite, ("patch integral", "patch area"), _patch(surface, region, rule))
    abs_err = float(np.linalg.norm(lhs - rhs))
    rel_err = abs_err / max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-30)
    return IdentityReport(lhs, rhs, abs_err, rel_err, area)


def shrinking_limit(surface: ParametricSurface, center: tuple[float, float],
                    radii, rule: QuadratureRule | None = None) -> LimitEstimate:
    """Average the contour integral over parameter disks of decreasing
    radius and compare with N * H at the center.

    observed_order is the least-squares slope of log error against log
    radius (nan when an error underflows the meaningful range, e.g. on a
    plane where every estimate is exactly zero). Before any evaluation,
    refuses a center that is not two numbers, radii that are no 1-d
    sequence of two or more, each disk as DiskRegion does, and then
    radii that do not strictly decrease, each with a ValueError.
    """
    # object arrays: a ragged sequence has a shape too
    if np.asarray(center, dtype=object).shape != (2,):
        raise ValueError(f"center must be two numbers (u, v), got {center!r}")
    if np.asarray(radii, dtype=object).ndim != 1 or len(radii) < 2:
        raise ValueError(f"radii must be a 1-d sequence of two or more, got {radii!r}")
    disks = [DiskRegion(*center, rho) for rho in radii]
    radii = np.array([disk.rho for disk in disks])
    if not np.all(np.diff(radii) < 0):
        raise ValueError("radii must be strictly decreasing")
    with np.errstate(all="ignore"):
        _, _, _, normal, _, mean = surface._checked_geometry(disks[0].uc, disks[0].vc, 2)
    target = _finite("N * H at the center", np.stack(normal) * mean)
    estimates = np.empty((len(radii), 3))
    for i, disk in enumerate(disks):
        # rhs_integral validates the disk for the area pass as well
        rhs = rhs_integral(surface, disk, rule)
        estimates[i] = rhs / _finite("patch area", _patch(surface, disk, rule, order=1)[1])
    errors = column_norm((estimates - target).T)
    if np.all(errors > 1e-14):
        observed_order = float(np.polyfit(np.log(radii), np.log(errors), 1)[0])
    else:
        observed_order = float("nan")
    return LimitEstimate(radii, estimates, target, errors, observed_order)
