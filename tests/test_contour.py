import math

import numpy as np
import pytest

import curvint as ci
from curvint import ContourError, DiskRegion, DomainError, RectRegion

from conftest import (
    random_disk,
    random_rect,
    reference_boundary_param,
    reference_boundary_point,
    reference_contour_length,
    reference_lhs_integral,
    reference_region_area,
    reference_rhs_integral,
    reference_verify_identity,
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
        fr = s.frame(u, v)
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
    # n . (S_a nu^a) > 0 with nu the parameter-space outward normal
    for s in np.linspace(0.0, 1.0, 64, endpoint=False):
        bp = ci.boundary_point(surface, region, s)
        (u, v), _, outward = region.boundary_param(s)
        _, s1, s2, _, _, _ = surface.geometry(u, v)
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
    with pytest.raises(DomainError):
        ci.lhs_integral(ci.Catenoid(1.0), RectRegion(1.0, 3.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        # straddles the sphere pole
        ci.rhs_integral(ci.Sphere(1.0), DiskRegion(0.05, 1.0, 0.2))
    with pytest.raises(ValueError):
        ci.shrinking_limit(ci.Sphere(1.0), (1.0, 1.0), [0.1, 0.2])  # not decreasing


def test_degenerate_contour_tangent():
    with pytest.raises(ContourError):
        ci.boundary_point(ci.Plane(), DiskRegion(0.0, 0.0, 1e-13), 0.25)


# -- region pieces and one-pass integrals against the reference quadrature --


def _oracle_cases():
    cases = []
    for i, surface in enumerate(ci.bundled_surfaces()):
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
        for got, ref in zip(region.boundary_param(s), reference_boundary_param(region, s)):
            close(got, ref)
        got, ref = ci.boundary_point(surface, region, s), reference_boundary_point(surface, region, s)
        for field in ("position", "tangent", "normal", "speed"):
            close(getattr(got, field), getattr(ref, field))


@pytest.mark.parametrize("region,calls", [
    (RectRegion(0.3, 1.1, 0.2, 0.9), 5),  # one per edge, one for the patch
    (DiskRegion(1.0, 1.0, 0.3), 2),
], ids=["rect", "disk"])
def test_verify_identity_geometry_calls(monkeypatch, region, calls):
    seen = []
    geometry = ci.ParametricSurface.geometry

    def counted(self, u, v):
        seen.append(1)
        return geometry(self, u, v)

    monkeypatch.setattr(ci.ParametricSurface, "geometry", counted)
    ci.verify_identity(ci.Torus(2.0, 0.5), region)
    assert len(seen) == calls


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
