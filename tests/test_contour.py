import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import curvint as ci
from curvint import ContourError, DiskRegion, DomainError, EvaluationError, RectRegion

from conftest import (
    NO_SHRINK,
    bundled_surfaces,
    frame,
    random_disk,
    random_rect,
    reference_boundary_param,
    reference_boundary_point,
    reference_contour_length,
    reference_lhs_integral,
    reference_region_area,
    reference_rhs_integral,
    reference_verify_identity,
    stacked_geometry,
)


def cap_region(theta0: float) -> RectRegion:
    return RectRegion(1e-6, theta0, 0.0, 2.0 * math.pi)


def test_plane_rect_bottom_edge():
    p = ci.Plane()
    region = RectRegion(0.0, 2.0, 0.0, 1.0)
    bp = ci.boundary_point(p, region, 0.125)  # bottom edge midpoint
    np.testing.assert_allclose(bp.tangent, [1.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(bp.normal, [0.0, -1.0, 0.0], atol=1e-14)
    assert abs(bp.speed - 8.0) < 1e-12  # edge length 2 over a quarter of s


def test_sphere_disk_normal_is_tangential():
    s = ci.Sphere(1.0)
    region = DiskRegion(1.2, 0.7, 0.3)
    for t in np.linspace(0.0, 1.0, 17, endpoint=False):
        bp = ci.boundary_point(s, region, t)
        u, v = region.boundary_param(t)[0]
        fr = frame(s, u, v)
        assert abs(bp.normal @ fr.normal) <= 1e-10
        assert abs(bp.normal @ bp.tangent) <= 1e-10
        assert abs(np.linalg.norm(bp.normal) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(bp.tangent) - 1.0) <= 1e-12


def test_sphere_cap_boundary_closed_form():
    # on the latitude circle theta = theta0 the exterior normal is
    # (cos t0 cos p, cos t0 sin p, -sin t0)
    theta0 = 1.0
    region = cap_region(theta0)
    for tau in (0.1, 0.5, 0.9):
        s = 0.25 + 0.25 * tau  # the theta = theta0 edge
        bp = ci.boundary_point(ci.Sphere(1.0), region, s)
        phi = 2.0 * math.pi * tau
        expected = np.array([math.cos(theta0) * math.cos(phi),
                             math.cos(theta0) * math.sin(phi),
                             -math.sin(theta0)])
        np.testing.assert_allclose(bp.normal, expected, atol=1e-12)


@pytest.mark.parametrize("surface,region", [
    (ci.Plane(), RectRegion(-1.0, 0.5, 0.2, 2.0)),
    (ci.Plane(), DiskRegion(0.0, 0.0, 1.1)),
    (ci.Sphere(1.0), cap_region(math.pi / 3)),
    (ci.Sphere(1.0), DiskRegion(1.2, 0.7, 0.4)),
    (ci.Torus(2.0, 0.5), RectRegion(0.3, 1.1, 0.2, 0.9)),
    (ci.Torus(2.0, 0.5), DiskRegion(1.0, 1.0, 0.3)),
    (ci.Cylinder(1.0), RectRegion(-0.5, 0.5, 0.2, 1.4)),
    (ci.Catenoid(1.0), RectRegion(-0.8, 0.5, 0.3, 2.0)),
    (ci.Enneper(), DiskRegion(0.2, -0.3, 0.5)),
    (ci.saddle(), RectRegion(-0.9, 0.4, -0.2, 1.0)),
], ids=lambda x: getattr(x, "name", None) or x.label)
def test_exterior_normal_points_outward(surface, region):
    # n . (S_a nu^a) > 0 with nu the parameter-space outward normal, which
    # the region does not give: the reference parameterization's own
    for s in np.linspace(0.0, 1.0, 64, endpoint=False):
        bp = ci.boundary_point(surface, region, s)
        (u, v), _ = region.boundary_param(s)
        outward = reference_boundary_param(region, s)[2]
        _, s1, s2, _, _, _ = stacked_geometry(surface, u, v)
        image_outward = outward[0] * s1 + outward[1] * s2
        assert bp.normal @ image_outward > 0.0


def test_lhs_plane_vanishes():
    got = ci.lhs_integral(ci.Plane(), RectRegion(-1.0, 2.0, 0.0, 1.0))
    assert np.linalg.norm(got) <= 1e-14


def test_lhs_sphere_cap_closed_form():
    # integral of N H dS over theta in [a, t0] is (0, 0, -2 pi (sin^2 t0 - sin^2 a))
    a, theta0 = 0.01, math.pi / 3
    got = ci.lhs_integral(ci.Sphere(1.0), RectRegion(a, theta0, 0.0, 2.0 * math.pi))
    exact = np.array([0.0, 0.0, -2.0 * math.pi * (math.sin(theta0) ** 2 - math.sin(a) ** 2)])
    np.testing.assert_allclose(got, exact, atol=1e-10)
    # the truncation gap against the whole-cap value is 2 pi sin^2(a)
    whole = np.array([0.0, 0.0, -2.0 * math.pi * math.sin(theta0) ** 2])
    assert np.linalg.norm(got - whole) <= 1e-3


def test_lhs_catenoid_vanishes():
    got = ci.lhs_integral(ci.Catenoid(1.0), RectRegion(-0.8, 0.5, 0.3, 2.0))
    assert np.linalg.norm(got) <= 1e-10


def test_rhs_sphere_cap_closed_form():
    theta0 = math.pi / 3
    got = ci.rhs_integral(ci.Sphere(1.0), cap_region(theta0))
    exact = np.array([0.0, 0.0, -2.0 * math.pi * math.sin(theta0) ** 2])
    assert np.linalg.norm(got - exact) <= 1e-8


def test_rhs_plane_closed_contour_vanishes():
    for region in (RectRegion(-1.0, 2.0, 0.0, 1.0), DiskRegion(0.3, -0.2, 0.9)):
        got = ci.rhs_integral(ci.Plane(), region)
        assert np.linalg.norm(got) <= 1e-12


def test_rhs_minimal_surface_vanishes():
    rng = np.random.default_rng(5)
    for surface in (ci.Catenoid(1.0), ci.Enneper()):
        for _ in range(10):
            region = random_rect(surface, rng) if rng.random() < 0.5 \
                else random_disk(surface, rng)
            value = np.linalg.norm(ci.rhs_integral(surface, region))
            length = ci.contour_length(surface, region)
            assert value <= 1e-8 * length


def test_verify_identity_torus_rect():
    report = ci.verify_identity(ci.Torus(2.0, 0.5), RectRegion(0.3, 1.1, 0.2, 0.9))
    assert report.rel_err <= 1e-8
    assert report.area > 0


def test_verify_identity_sphere_cap():
    report = ci.verify_identity(ci.Sphere(1.0), cap_region(math.pi / 3))
    exact = np.array([0.0, 0.0, -1.5 * math.pi])
    assert np.linalg.norm(report.lhs - exact) <= 1e-7
    assert np.linalg.norm(report.rhs - exact) <= 1e-7
    assert abs(report.abs_err - np.linalg.norm(report.lhs - report.rhs)) <= 1e-15
    # area approaches the exact cap area 2 pi (1 - cos theta0)
    assert abs(report.area - 2.0 * math.pi * (1.0 - 0.5)) <= 1e-6


def test_verify_identity_saddle_rect():
    report = ci.verify_identity(ci.saddle(), RectRegion(-0.6, 0.1, -0.2, 0.7))
    assert report.rel_err <= 1e-8


@pytest.mark.parametrize("surface,region", [
    (ci.Sphere(1.0), DiskRegion(1.2, 0.7, 0.4)),
    (ci.Torus(2.0, 0.5), DiskRegion(1.0, 4.0, 0.35)),
    (ci.Cylinder(1.0), RectRegion(-0.5, 0.5, 0.2, 1.4)),
], ids=["sphere-disk", "torus-disk", "cylinder-rect"])
def test_verify_identity_more_pairs(surface, region):
    assert ci.verify_identity(surface, region).rel_err <= 1e-8


def test_shrinking_limit_plane_exact():
    study = ci.shrinking_limit(ci.Plane(), (0.2, -0.4), [0.2, 0.1, 0.05])
    assert np.linalg.norm(study.estimates) <= 1e-13
    assert math.isnan(study.observed_order)


def test_shrinking_limit_torus():
    study = ci.shrinking_limit(ci.Torus(2.0, 0.5), (1.0, 1.0),
                               [0.2, 0.1, 0.05, 0.025])
    assert np.all(np.diff(study.errors) < 0)
    assert study.observed_order >= 1.0


def test_shrinking_limit_sphere_final_error():
    study = ci.shrinking_limit(ci.Sphere(1.0), (math.pi / 3, math.pi / 4),
                               [0.2, 0.1, 0.05, 0.025])
    target_mag = np.linalg.norm(study.target)
    assert abs(target_mag - 2.0) <= 1e-12
    assert study.errors[-1] <= 1e-3 * target_mag


def test_region_validation():
    with pytest.raises(ValueError):
        RectRegion(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        DiskRegion(0.0, 0.0, -0.1)
    for rho in (math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"^disk radius must be finite, got {rho}$"):
            DiskRegion(1.0, 1.0, rho)
    with pytest.raises(ValueError, match="^disk radius must be finite, got inf$"):
        DiskRegion(1.0, 1.0, math.inf)
    for uc, vc, message in ((math.nan, 1.0, "uc must be finite, got nan"),
                            (1.0, math.nan, "vc must be finite, got nan"),
                            (math.inf, 1.0, "uc must be finite, got inf"),
                            (1.0, -math.inf, "vc must be finite, got -inf")):
        with pytest.raises(ValueError, match=f"^disk center {message}$"):
            DiskRegion(uc, vc, 0.3)
    for corners, message in (((-math.inf, 1.0, 0.0, 1.0), "u0 must be finite, got -inf"),
                             ((0.0, math.inf, 0.0, 1.0), "u1 must be finite, got inf"),
                             ((0.0, 1.0, math.nan, 1.0), "v0 must be finite, got nan"),
                             ((0.0, 1.0, 0.0, math.nan), "v1 must be finite, got nan")):
        with pytest.raises(ValueError, match=f"^rectangle corner {message}$"):
            RectRegion(*corners)
    with pytest.raises(DomainError):
        ci.lhs_integral(ci.Catenoid(1.0), RectRegion(1.0, 3.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        # straddles the sphere pole
        ci.rhs_integral(ci.Sphere(1.0), DiskRegion(0.05, 1.0, 0.2))
    with pytest.raises(ValueError):
        ci.shrinking_limit(ci.Sphere(1.0), (1.0, 1.0), [0.1, 0.2])  # not decreasing
    message = "radii must be a 1-d sequence of two or more, got [0.1]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ci.shrinking_limit(ci.Sphere(1.0), (1.0, 1.0), [0.1])
    # a periodic coordinate: a patch may not wrap onto itself
    with pytest.raises(DomainError, match="^region spans more than one period$"):
        ci.lhs_integral(ci.Torus(2.0, 0.5), RectRegion(0.0, 7.0, 0.0, 1.0))
    with pytest.raises(DomainError, match="^region spans more than one period$"):
        ci.rhs_integral(ci.Cylinder(1.0), RectRegion(0.0, 1.0, -1.0, 6.0))
    with pytest.raises(DomainError, match="^region spans more than one period$"):
        ci.rhs_integral(ci.Torus(2.0, 0.5), DiskRegion(1.0, 1.0, 3.2))
    # every finite point is inside a torus or a plane: the center itself is at fault
    for surface, center in ((ci.Torus(2.0, 0.5), (math.inf, 1.0)), (ci.Plane(), (math.nan, 0.0))):
        with pytest.raises(ValueError, match=f"^disk center uc must be finite, got {center[0]}$"):
            ci.shrinking_limit(surface, center, [0.2, 0.1])


_PASSES = [ci.lhs_integral, ci.rhs_integral, ci.region_area, ci.contour_length,
           ci.verify_identity, lambda surface, region: ci.boundary_point(surface, region, 0.3)]


@pytest.mark.parametrize("surface,region,message", [
    # the disk's box starts at u0 = 5e-10, within the sphere's pole margin of 1e-9
    (ci.Sphere(1.0), DiskRegion(0.3, 1.0, 0.3 - 5e-10), "region not inside the domain of sphere"),
    (ci.Torus(2.0, 0.5), DiskRegion(1.0, 1.0, math.pi + 1e-11), "region spans more than one period"),
    (ci.Cylinder(1.0), RectRegion(0.0, 1.0, 0.0, 2.0 * math.pi + 1e-11),
     "region spans more than one period"),
    (ci.Catenoid(1.0), RectRegion(-1.0, 2.5, 0.0, 1.0), "region not inside the domain of catenoid"),
], ids=["sphere-disk-pole", "torus-disk-period", "cylinder-rect-period", "catenoid-rect-domain"])
def test_every_pass_refuses_a_region_by_its_box(surface, region, message):
    # one gate, on the box (u0, u1, v0, v1): a rectangle's corners, a disk's bounding box
    assert RectRegion.validate_on is DiskRegion.validate_on
    for evaluate in _PASSES:
        with pytest.raises(DomainError, match=f"^{message}$"):
            evaluate(surface, region)
    if "period" in message:  # exactly one period is admitted
        span = {"rho": math.pi} if isinstance(region, DiskRegion) else {"v1": 2.0 * math.pi}
        region._replace(**span).validate_on(surface)


@pytest.mark.parametrize("surface,region", [
    (ci.Sphere(1.0), DiskRegion(1.2, 0.7, 0.4)), (ci.Torus(2.0, 0.5), RectRegion(0.3, 1.1, 0.2, 0.9)),
], ids=["sphere-disk", "torus-rect"])
def test_no_rule_is_the_default_rule_bitwise(surface, region):
    def limit(surface, region, rule):
        return ci.shrinking_limit(surface, (1.2, 0.7), [0.2, 0.1], rule)

    for evaluate in _PASSES[:5] + [limit]:
        got, ref = evaluate(surface, region, None), evaluate(surface, region, ci.default_rule())
        got, ref = ((x,) if isinstance(x, (float, np.ndarray)) else x for x in (got, ref))
        assert [*map(_bits, got)] == [*map(_bits, ref)], evaluate.__name__


@pytest.mark.parametrize("center,radii,message", [
    ((1.0, 1.0), 0.2, "radii must be a 1-d sequence of two or more, got 0.2"),
    ((1.0, 1.0), [[0.2, 0.1]], "radii must be a 1-d sequence of two or more, got [[0.2, 0.1]]"),
    ((1.0, 1.0, 5.0), [0.2, 0.1], "center must be two numbers (u, v), got (1.0, 1.0, 5.0)"),
    (1.0, [0.2, 0.1], "center must be two numbers (u, v), got 1.0"),
    ((1.0, "1"), [0.2, 0.1], "disk center vc must be a real number, got '1'"),
    ((1.0, 1.0), [0.2, None], "disk radius must be a real number, got None"),
])
def test_shrinking_limit_refuses_a_malformed_center_or_radii_by_name(center, radii, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ci.shrinking_limit(ci.Torus(2.0, 0.5), center, radii)


@pytest.mark.parametrize("fn,args,message", [
    (ci.rhs_integral, (RectRegion(0.3, 1.1, 0.2, 0.9),), "contour integral"),
    (ci.contour_length, (RectRegion(0.3, 1.1, 0.2, 0.9),), "contour length"),
    (ci.verify_identity, (RectRegion(0.3, 1.1, 0.2, 0.9),), "contour integral"),
    (ci.lhs_integral, (RectRegion(0.3, 1.1, 0.2, 0.9),), "patch integral"),
    (ci.region_area, (RectRegion(0.3, 1.1, 0.2, 0.9),), "patch area"),
    (ci.shrinking_limit, ((1.0, 0.5), [0.2, 0.1]), "N * H at the center"),
    (ci.shrinking_limit, ((0.1, 0.5), [0.2, 0.1]), "contour integral"),
    (ci.boundary_point, (RectRegion(0.3, 1.1, 0.2, 0.9), 0.3), "boundary point"),
])
def test_overflowing_surface_is_refused_naming_the_quantity(fn, args, message):
    # cosh(u / c) overflows at u / c above about 710 and its square near
    # 355: a non-finite integral or boundary point raises, without
    # numpy's warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=f"^{re.escape(message)} is not finite$"):
            fn(ci.Catenoid(1e-3), *args)


def test_degenerate_contour_tangent():
    with pytest.raises(ContourError):
        ci.boundary_point(ci.Plane(), DiskRegion(0.0, 0.0, 1e-13), 0.25)


# -- region pieces and one-pass integrals against the reference quadrature --


def _oracle_cases():
    cases = []
    for i, surface in enumerate(bundled_surfaces()):
        rng = np.random.default_rng(700 + i)
        for _ in range(2):
            cases += [(surface, random_rect(surface, rng)), (surface, random_disk(surface, rng))]
    # the README's cap and torus rect
    cases.append((ci.Sphere(1.0), RectRegion(1e-6, 1.0472, 0.0, 2.0 * math.pi)))
    cases.append((ci.Torus(2.0, 0.5), RectRegion(0.3, 1.1, 0.2, 0.9)))
    return cases


ORACLE_CASES = _oracle_cases()
ORACLE_IDS = [f"{i}-{surface.name}-{region.label}" for i, (surface, region) in enumerate(ORACLE_CASES)]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("rule", [ci.default_rule(), ci.gauss_legendre(5, panels=3)],
                         ids=["default", "n5p3"])
@pytest.mark.parametrize("surface,region", ORACLE_CASES, ids=ORACLE_IDS)
def test_integrals_match_reference_bitwise(surface, region, rule):
    assert _bits(ci.lhs_integral(surface, region, rule)) == \
        _bits(reference_lhs_integral(surface, region, rule))
    assert _bits(ci.rhs_integral(surface, region, rule)) == \
        _bits(reference_rhs_integral(surface, region, rule))
    assert _bits(ci.region_area(surface, region, rule)) == \
        _bits(reference_region_area(surface, region, rule))
    assert _bits(ci.contour_length(surface, region, rule)) == \
        _bits(reference_contour_length(surface, region, rule))
    got = ci.verify_identity(surface, region, rule)
    ref = reference_verify_identity(surface, region, rule)
    for field in ("lhs", "rhs", "abs_err", "rel_err", "area"):
        assert _bits(getattr(got, field)) == _bits(getattr(ref, field)), field


@pytest.mark.parametrize("surface,region", ORACLE_CASES, ids=ORACLE_IDS)
def test_boundary_matches_reference(surface, region):
    def close(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(1.0, np.abs(b)))

    params = np.r_[np.linspace(0.0, 1.0, 41, endpoint=False), 0.25, 0.5, 0.75, 1.0 - 1e-12]
    for s in params:
        # point and velocity; the reference's outward normal is its own
        for got, ref in zip(region.boundary_param(s), reference_boundary_param(region, s)[:2],
                            strict=True):
            close(got, ref)
        got, ref = ci.boundary_point(surface, region, s), reference_boundary_point(surface, region, s)
        for field in ("position", "tangent", "normal", "speed"):
            close(getattr(got, field), getattr(ref, field))


def _stacked_boundary_point(surface, region, s) -> ci.BoundaryPoint:
    """boundary_point as the contour oracle frames a one-node contour:
    stacked_geometry on the region's own boundary_param, np.cross and
    np.linalg.norm along the trailing axis."""
    (u, v), (du, dv) = region.boundary_param(s)
    pos, s1, s2, normal, _, _ = stacked_geometry(surface, np.array([u]), np.array([v]), order=1)
    d = du * s1 + dv * s2
    speed = np.linalg.norm(d, axis=1)
    n = np.cross(d / speed[:, None], normal)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return ci.BoundaryPoint(pos[0], d[0] / speed[0], n[0], float(speed[0]))


@pytest.mark.parametrize("surface", bundled_surfaces(), ids=lambda s: s.name)
@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(kind=st.sampled_from(["rect", "disk"]), seed=st.integers(0, 2 ** 32 - 1),
       params=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3))
def test_contour_passes_match_the_stacked_oracles_bitwise(surface, kind, seed, params):
    # the contour pass, boundary_point and the limit's centre evaluate the
    # geometry core after one domain check; the oracles read the public
    # geometry (stacked_geometry) or the stacked reference_geometry
    rng = np.random.default_rng(seed)
    region = (random_rect if kind == "rect" else random_disk)(surface, rng)
    rule = ci.default_rule()
    assert _bits(ci.rhs_integral(surface, region, rule)) == \
        _bits(reference_rhs_integral(surface, region, rule))
    assert _bits(ci.contour_length(surface, region, rule)) == \
        _bits(reference_contour_length(surface, region, rule))
    assert _bits(ci.lhs_integral(surface, region, rule)) == \
        _bits(reference_lhs_integral(surface, region, rule))
    for s in params:
        got, ref = ci.boundary_point(surface, region, s), _stacked_boundary_point(surface, region, s)
        for field in ("position", "tangent", "normal", "speed"):
            assert _bits(getattr(got, field)) == _bits(getattr(ref, field)), (s, field)
    disk = random_disk(surface, rng)
    radii = [disk.rho, disk.rho / 2, disk.rho / 4]
    study = ci.shrinking_limit(surface, (disk.uc, disk.vc), radii, rule)
    _, _, _, normal, _, mean = stacked_geometry(surface, disk.uc, disk.vc)
    assert _bits(study.target) == _bits(normal * mean)
    disks = [DiskRegion(disk.uc, disk.vc, r) for r in radii]
    assert _bits(study.estimates) == _bits([reference_rhs_integral(surface, d, rule)
                                            / reference_region_area(surface, d, rule) for d in disks])


def _count_geometry_orders(monkeypatch) -> list[int]:
    """The order of every later call of the geometry core, in call order."""
    seen = []
    core = ci.ParametricSurface._geometry

    def counted(self, u, v, order):
        seen.append(order)
        return core(self, u, v, order)

    monkeypatch.setattr(ci.ParametricSurface, "_geometry", counted)
    return seen


@pytest.mark.parametrize("region,calls", [
    # one for the four edges, one per panel row of the patch's 8 panels
    (RectRegion(0.3, 1.1, 0.2, 0.9), 9),
    (DiskRegion(1.0, 1.0, 0.3), 9),
], ids=["rect", "disk"])
def test_verify_identity_geometry_calls(monkeypatch, region, calls):
    seen = _count_geometry_orders(monkeypatch)
    ci.verify_identity(ci.Torus(2.0, 0.5), region)
    assert len(seen) == calls
    # the contour is first-order, the patch pass second-order
    assert seen == [1] + [2] * 8


def test_shrinking_limit_geometry_calls(monkeypatch):
    seen = _count_geometry_orders(monkeypatch)
    ci.shrinking_limit(ci.Torus(2.0, 0.5), (1.0, 1.0), [0.2, 0.1, 0.05])
    # the centre's N * H, then per radius the contour and the area pass,
    # one call per panel row
    assert seen == [2] + ([1] + [1] * 8) * 3


@pytest.mark.parametrize("region", [RectRegion(0.3, 1.1, 0.2, 0.9), DiskRegion(1.0, 1.0, 0.3)],
                         ids=["rect", "disk"])
def test_each_pass_checks_its_nodes_once_and_never_calls_the_public_geometry(monkeypatch, region):
    checks, public = [], []
    require_inside, geometry = ci.ParametricSurface.require_inside, ci.ParametricSurface.geometry

    def checked(self, u, v):
        checks.append(np.broadcast(u, v).shape)
        return require_inside(self, u, v)

    def counted(self, *args, **kwargs):
        public.append(args)
        return geometry(self, *args, **kwargs)

    monkeypatch.setattr(ci.ParametricSurface, "require_inside", checked)
    monkeypatch.setattr(ci.ParametricSurface, "geometry", counted)
    surface, contour_nodes = ci.Torus(2.0, 0.5), 128 * region.pieces
    ci.verify_identity(surface, region)
    # all the contour's nodes, then the whole interior grid, not per panel row
    assert checks == [(contour_nodes,), (128, 128)]
    checks.clear()
    ci.region_area(surface, region)
    assert checks == [(128, 128)]
    checks.clear()
    ci.shrinking_limit(surface, (1.0, 1.0), [0.2, 0.1, 0.05])
    assert checks == [()] + [(128,), (128, 128)] * 3
    assert public == []


def test_shrinking_limit_validates_each_disk_once(monkeypatch):
    # each estimate is bitwise the quotient of the public integrals
    radii = [0.2, 0.1, 0.05]
    surface, center = ci.Torus(2.0, 0.5), (1.0, 1.0)
    expected = [ci.rhs_integral(surface, DiskRegion(*center, r))
                / ci.region_area(surface, DiskRegion(*center, r)) for r in radii]
    seen = []
    validate = DiskRegion.validate_on

    def counted(self, s):
        seen.append(self.rho)
        return validate(self, s)

    monkeypatch.setattr(DiskRegion, "validate_on", counted)
    study = ci.shrinking_limit(surface, center, radii)
    assert seen == radii
    assert study.estimates.tobytes() == np.array(expected).tobytes()


def test_rect_patch_evaluates_the_jet_on_its_two_axes(monkeypatch):
    shapes = []
    jet = ci.Torus.jet

    def recorded(self, u, v, order=2):
        shapes.append((np.shape(u), np.shape(v)))
        return jet(self, u, v, order)

    monkeypatch.setattr(ci.Torus, "jet", recorded)
    ci.lhs_integral(ci.Torus(2.0, 0.5), RectRegion(0.3, 1.1, 0.2, 0.9))
    # one panel row of the u axis at a time, still never the grid
    assert shapes == [((16, 1), (1, 128))] * 8


@pytest.mark.parametrize("surface", bundled_surfaces(), ids=lambda s: s.name)
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(kind=st.sampled_from(["rect", "disk"]), seed=st.integers(0, 2 ** 32 - 1),
       nodes=st.integers(1, 20), panels=st.integers(1, 10))
@example(kind="rect", seed=1, nodes=16, panels=1)  # one panel: one block, one call
@example(kind="disk", seed=1, nodes=16, panels=1)
def test_patch_blocks_match_the_full_grid_bitwise(surface, kind, seed, nodes, panels):
    # the patch pass evaluates one panel row at a time; the reference
    # evaluates the whole grid at once
    make = random_rect if kind == "rect" else random_disk
    region = make(surface, np.random.default_rng(seed))
    rule = ci.gauss_legendre(nodes, panels)
    assert _bits(ci.lhs_integral(surface, region, rule)) == \
        _bits(reference_lhs_integral(surface, region, rule))
    assert _bits(ci.region_area(surface, region, rule)) == \
        _bits(reference_region_area(surface, region, rule))
    got = ci.verify_identity(surface, region, rule)
    ref = reference_verify_identity(surface, region, rule)
    for field in ("lhs", "rhs", "abs_err", "rel_err", "area"):
        assert _bits(getattr(got, field)) == _bits(getattr(ref, field)), field


@pytest.mark.parametrize("rule", [ci.default_rule(), ci.gauss_legendre(16)],
                         ids=["8panels", "1panel"])
def test_degenerate_patch_refused_as_on_the_full_grid(rule):
    # sqrt_g = 4e-12 sin(theta) drops below the tolerance only past
    # theta = 2.89, so with 8 panels the first blocks pass and a later one refuses
    surface, region = ci.Sphere(2e-6), RectRegion(0.3, 3.0, 0.0, 1.0)
    with pytest.raises(DomainError) as ref:
        reference_lhs_integral(surface, region, rule)
    for integral in (ci.lhs_integral, ci.region_area):
        with pytest.raises(DomainError) as err:
            integral(surface, region, rule)
        assert type(err.value) is type(ref.value)
        assert str(err.value) == str(ref.value) == "degenerate parameterization of sphere"


@pytest.mark.parametrize("region", [DiskRegion(1.0, 1.0, 0.3), RectRegion(0.3, 1.1, 0.2, 0.9)],
                         ids=["disk", "rect"])
def test_verify_identity_allocates_at_most_a_panel_row_of_temporaries(region):
    # a deterministic stand-in for page faults: one geometry call on the
    # whole 128 x 128 grid makes about 80 grid-sized temporaries (a
    # 3.3-3.9 MiB peak); a 16 x 128 panel row's stay well under the bound
    surface = ci.Torus(2.0, 0.5)
    ci.verify_identity(surface, region)  # warm
    tracemalloc.start()
    try:
        ci.verify_identity(surface, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


# -- the identity's moment companion: integral_P x X N H dS = integral_G x X n dG --


def _moment_sides(surface, region, rule):
    """(patch moment, contour moment, contour length, max |x| on the
    contour), by np.cross on the stacked columns of geometry()."""
    U, V, w1, w2, jac = region.interior(rule)
    pos, _, _, normal, sqrt_g, mean = stacked_geometry(surface, U, V)
    field = np.cross(pos, normal) * (mean * sqrt_g * jac)[..., None]
    lhs = np.einsum("i,j,ijk->k", w1, w2, field)
    t, w = ci.panel_nodes(0.0, 1.0, rule)
    rhs, length, reach = np.zeros(3), 0.0, 0.0
    for k in range(region.pieces):
        (u, v), (du, dv) = region.piece(k, t)
        pos, s1, s2, normal, _, _ = stacked_geometry(surface, u, v, order=1)
        d = du[:, None] * s1 + dv[:, None] * s2
        speed = np.linalg.norm(d, axis=1)
        n = np.cross(d, normal)
        n /= np.linalg.norm(n, axis=1)[:, None]
        rhs += (w * speed) @ np.cross(pos, n)
        length += w @ speed
        reach = max(reach, np.linalg.norm(pos, axis=1).max())
    return lhs, rhs, length, reach


@pytest.mark.parametrize("surface", bundled_surfaces(), ids=lambda s: s.name)
@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["rect", "disk"]), seed=st.integers(0, 2 ** 32 - 1))
def test_moment_identity(surface, kind, seed):
    # x X (Delta_S x) = x X N H integrates to the contour's x X n, the
    # tangential part sum_i e_i X e_i vanishing; on a sphere about the
    # origin and on minimal surfaces both sides are roundoff of zero
    make = random_rect if kind == "rect" else random_disk
    region = make(surface, np.random.default_rng(seed))
    lhs, rhs, length, reach = _moment_sides(surface, region, ci.default_rule())
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), length * reach)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale
