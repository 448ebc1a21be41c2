import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvint as ci
from curvint import DomainError, EvaluationError

from conftest import (bundled_surfaces, frame, random_interior_points, reference_geometry,
                      reference_numeric_mean_curvature, sample_box, stacked_geometry,
                      stacked_jet)


KINDS = bundled_surfaces()


@pytest.mark.parametrize("surface", KINDS, ids=lambda s: s.name)
def test_frame_invariants(surface):
    rng = np.random.default_rng(11)
    us, vs = random_interior_points(surface, rng, 50)
    for u, v in zip(us, vs):
        fr = frame(surface, u, v)
        assert abs(np.linalg.norm(fr.normal) - 1.0) <= 1e-12
        assert abs(fr.normal @ fr.s1) <= 1e-10 * np.linalg.norm(fr.s1)
        assert abs(fr.normal @ fr.s2) <= 1e-10 * np.linalg.norm(fr.s2)
        assert fr.sqrt_g > 0
        assert abs(fr.sqrt_g - np.linalg.norm(np.cross(fr.s1, fr.s2))) <= 1e-10


@pytest.mark.parametrize("surface", KINDS, ids=lambda s: s.name)
def test_mean_curvature_matches_finite_differences(surface):
    rng = np.random.default_rng(23)
    us, vs = random_interior_points(surface, rng, 100)
    for u, v in zip(us, vs):
        h_exact = frame(surface, u, v).mean_curvature
        h_numeric = reference_numeric_mean_curvature(surface, u, v, h=1e-4)
        assert abs(h_exact - h_numeric) <= 1e-5 * (1.0 + abs(h_exact))


@pytest.mark.parametrize("surface", KINDS, ids=lambda s: s.name)
@settings(max_examples=30)
@given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
def test_jet_derivatives_match_central_differences(surface, a, b):
    # r_uv matters here on the orthogonal charts too, where g12 = 0 hides
    # it from H
    u0, u1, v0, v1 = sample_box(surface)
    u, v = u0 + a * (u1 - u0), v0 + b * (v1 - v0)
    h = 1e-5

    def d_du(k):
        return (stacked_jet(surface, u + h, v)[k] - stacked_jet(surface, u - h, v)[k]) / (2 * h)

    def d_dv(k):
        return (stacked_jet(surface, u, v + h)[k] - stacked_jet(surface, u, v - h)[k]) / (2 * h)

    _, ru, rv, ruu, ruv, rvv = stacked_jet(surface, u, v)
    for exact, numeric in [(ru, d_du(0)), (rv, d_dv(0)), (ruu, d_du(1)), (rvv, d_dv(2)),
                           (ruv, d_du(2)), (ruv, d_dv(1))]:
        np.testing.assert_allclose(numeric, exact, rtol=0, atol=1e-7)
    assert surface.position(u, v).tobytes() == np.stack(surface.geometry(u, v)[0], -1).tobytes()


def _assert_same(got, ref):
    """Same shape, dtype and bits, nan at the same entries."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, ref).tobytes()


def _parameters(surface, layout, rng):
    u0, u1, v0, v1 = sample_box(surface)
    if layout == "scalar":
        return float(rng.uniform(u0, u1)), float(rng.uniform(v0, v1))
    if layout == "broadcast":  # a read-only view against a row
        u = np.broadcast_to(rng.uniform(u0, u1, (4, 1)), (4, 5))
        return u, rng.uniform(v0, v1, (1, 5))
    shape = (7,) if layout == "1d" else (3, 6)
    return rng.uniform(u0, u1, shape), rng.uniform(v0, v1, shape)


@pytest.mark.parametrize("surface", KINDS, ids=lambda s: s.name)
@settings(max_examples=20)
@given(layout=st.sampled_from(["scalar", "1d", "2d", "broadcast"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_geometry_matches_stacked_reference(surface, layout, seed):
    u, v = _parameters(surface, layout, np.random.default_rng(seed))
    ref = reference_geometry(surface, u, v)
    got = stacked_geometry(surface, u, v)
    for g, r in zip(got, ref):
        _assert_same(g, r)
    first = stacked_geometry(surface, u, v, order=1)
    assert first[5] is None
    for g, r in zip(first[:5], got[:5]):
        assert np.asarray(g).tobytes() == np.asarray(r).tobytes()


@pytest.mark.parametrize("surface", KINDS, ids=lambda s: s.name)
@pytest.mark.parametrize("layout", ["scalar", "1d", "2d", "broadcast"])
def test_geometry_returns_component_columns(surface, layout):
    # constants in the jet (the plane's S1 and S2, the cylinder's S1) come
    # back as columns of the full shape too
    u, v = _parameters(surface, layout, np.random.default_rng(5))
    shape = np.broadcast(u, v).shape
    for order in (1, 2):
        *vectors, sqrt_g, mean = surface.geometry(u, v, order=order)
        assert len(vectors) == 4
        for cols in vectors:
            assert isinstance(cols, tuple) and len(cols) == 3
            assert all(isinstance(c, np.ndarray) and c.shape == shape for c in cols)
        assert np.shape(sqrt_g) == shape
        assert (mean is None) if order == 1 else np.shape(mean) == shape


@pytest.mark.parametrize("surface", KINDS, ids=lambda s: s.name)
@pytest.mark.parametrize("order", [1, 2])
def test_geometry_on_axes_matches_the_broadcast_grid_bitwise(surface, order):
    u0, u1, v0, v1 = sample_box(surface)
    rng = np.random.default_rng(17)
    x, y = rng.uniform(u0, u1, 9), rng.uniform(v0, v1, 7)
    axes = surface.geometry(x[:, None], y[None, :], order=order)
    grid = surface.geometry(*np.broadcast_arrays(x[:, None], y[None, :]), order=order)
    for a, g in zip(axes[:4], grid[:4]):
        assert [c.shape for c in a] == [(9, 7)] * 3
        assert np.stack(a, -1).tobytes() == np.stack(g, -1).tobytes()
    for a, g in zip(axes[4:], grid[4:]):
        assert (a is None and g is None) or np.asarray(a).tobytes() == np.asarray(g).tobytes()


@pytest.mark.parametrize("surface", KINDS, ids=lambda s: s.name)
@pytest.mark.parametrize("layout", ["scalar", "1d", "axes", "broadcast"])
def test_first_order_jet_is_the_head_of_the_jet_bitwise(surface, layout):
    if layout == "axes":
        u0, u1, v0, v1 = sample_box(surface)
        rng = np.random.default_rng(29)
        u, v = rng.uniform(u0, u1, (6, 1)), rng.uniform(v0, v1, (1, 4))
    else:
        u, v = _parameters(surface, layout, np.random.default_rng(29))
    u, v = np.asarray(u, float), np.asarray(v, float)
    first = surface.jet(u, v, order=1)
    full = surface.jet(u, v)
    assert len(first) == 3 and len(full) == 6
    for got, ref in zip(first, full[:3]):
        assert len(got) == 3
        for g, r in zip(got, ref):
            _assert_same(g, r)


def test_first_order_passes_never_call_the_second_partials():
    def refuse(x, y):
        raise AssertionError("a second partial was evaluated")

    bump = dict(f=lambda x, y: np.sin(x) * np.cos(y),
                fx=lambda x, y: np.cos(x) * np.cos(y),
                fy=lambda x, y: -np.sin(x) * np.sin(y),
                x_range=(-2.0, 2.0), y_range=(-2.0, 2.0), name="bump")
    g = ci.MongeGraph(fxx=refuse, fxy=refuse, fyy=refuse, **bump)
    full = ci.MongeGraph(fxx=lambda x, y: -np.sin(x) * np.cos(y),
                         fxy=lambda x, y: -np.cos(x) * np.sin(y),
                         fyy=lambda x, y: -np.sin(x) * np.cos(y), **bump)
    u, v = np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 0.7, 5)
    for got, ref in zip(stacked_geometry(g, u, v, order=1)[:5], stacked_geometry(full, u, v)):
        _assert_same(got, ref)
    for region in (ci.RectRegion(-1.0, 0.5, -0.3, 1.2), ci.DiskRegion(0.2, 0.1, 0.6)):
        assert ci.region_area(g, region) == ci.region_area(full, region)
        assert ci.rhs_integral(g, region).tobytes() == ci.rhs_integral(full, region).tobytes()
    assert g.position(u[:, None], v).tobytes() == full.position(u[:, None], v).tobytes()
    with pytest.raises(AssertionError, match="second partial"):
        g.geometry(u, v)


def _stacked_core(surface, u, v, order=2):
    """The geometry core's columns broadcast to the shape of (u, v), each
    vector's stacked along a trailing axis of 3."""
    shape = np.broadcast(u, v).shape
    *vectors, sqrt_g, mean = surface._geometry(u, v, order)
    return (*(np.stack([np.broadcast_to(c, shape) for c in cols], axis=-1) for cols in vectors),
            np.broadcast_to(sqrt_g, shape), None if mean is None else np.broadcast_to(mean, shape))


def test_overflowing_geometry_matches_stacked_reference():
    # cosh(u / 1e-3) overflows above u of about 0.71; the integrals read
    # the core, which passes the non-finite columns on for them to refuse
    surface = ci.Catenoid(1e-3)
    u, v = np.linspace(0.3, 1.1, 9)[:, None], np.linspace(0.2, 0.9, 4)[None, :]
    with np.errstate(all="ignore"):
        ref = reference_geometry(surface, u, v)
        got = _stacked_core(surface, u, v)
        first = _stacked_core(surface, u, v, order=1)
    assert np.isnan(ref[5]).any() and np.isnan(ref[3]).any()
    for g, r in zip(got, ref):
        _assert_same(g, r)
    for g, r in zip(first[:5], ref[:5]):
        _assert_same(g, r)


@pytest.mark.parametrize("order", [1, 2])
def test_overflowing_geometry_is_refused_at_either_order(order):
    surface = ci.Catenoid(1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (1.0, np.linspace(0.05, 1.1, 9)):  # cosh(u / 1e-3) overflows above u = 0.71
            with pytest.raises(EvaluationError, match="^surface geometry is not finite$"):
                surface.geometry(u, 0.5, order=order)
        *vectors, sqrt_g, mean = surface.geometry(0.1, 0.5, order=order)
    assert np.isfinite([*(c for cols in vectors for c in cols), sqrt_g]).all()
    assert (mean is None) if order == 1 else np.isfinite(mean)


def test_degenerate_parameterization_refused_at_either_order():
    tiny = ci.Sphere(1e-7)  # sqrt_g = 1e-14 sin(theta)
    with pytest.raises(DomainError, match="^degenerate parameterization of sphere$"):
        reference_geometry(tiny, 1.0, 0.5)
    for order in (1, 2):
        with pytest.raises(DomainError, match="^degenerate parameterization of sphere$"):
            tiny.geometry(1.0, 0.5, order=order)
    with pytest.raises(ValueError, match="^order must be 1 or 2, got 3$"):
        ci.Torus(2.0, 0.5).geometry(1.0, 0.5, order=3)


def test_sphere_frame_reference_point():
    fr = frame(ci.Sphere(2.0), math.pi / 2, 0.0)
    np.testing.assert_allclose(fr.position, [2.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(fr.normal, [1.0, 0.0, 0.0], atol=1e-12)
    assert abs(fr.mean_curvature + 1.0) <= 1e-12  # outward normal, H = -2/R


def test_sphere_numeric_curvature_value():
    got = reference_numeric_mean_curvature(ci.Sphere(1.0), math.pi / 3, math.pi / 4, h=1e-4)
    assert abs(got + 2.0) <= 1e-6


def test_torus_numeric_vs_frame():
    t = ci.Torus(2.0, 0.5)
    exact = frame(t, math.pi / 2, math.pi / 2).mean_curvature
    got = reference_numeric_mean_curvature(t, math.pi / 2, math.pi / 2, h=1e-4)
    assert abs(exact - got) <= 1e-5


def test_plane_is_flat():
    p = ci.Plane()
    assert frame(p, 0.3, -1.7).mean_curvature == 0.0
    assert abs(reference_numeric_mean_curvature(p, 0.3, -1.7)) <= 1e-8


@pytest.mark.parametrize("surface", [ci.Catenoid(1.0), ci.Catenoid(0.7), ci.Enneper()],
                         ids=["catenoid1", "catenoid07", "enneper"])
def test_minimal_surfaces_have_zero_curvature(surface):
    rng = np.random.default_rng(31)
    us, vs = random_interior_points(surface, rng, 100)
    for u, v in zip(us, vs):
        assert abs(frame(surface, u, v).mean_curvature) <= 1e-10


def test_domain_errors():
    s = ci.Sphere(1.0)
    with pytest.raises(DomainError):
        frame(s, 0.0, 0.0)  # pole
    with pytest.raises(DomainError):
        frame(s, 1e-10, 0.0)  # inside the pole margin
    with pytest.raises(DomainError):
        frame(ci.Catenoid(1.0), 3.0, 0.0)
    with pytest.raises(DomainError):
        frame(ci.Enneper(), 2.0, 0.0)
    # periodic coordinate accepts any finite value
    assert frame(ci.Torus(2.0, 0.5), 17.0, -40.0)


def test_numeric_curvature_needs_stencil_room():
    c = ci.Catenoid(1.0)
    with pytest.raises(DomainError):
        reference_numeric_mean_curvature(c, 2.0 - 1e-5, 0.0, h=1e-4)


def test_geometry_broadcasts():
    t = ci.Torus(2.0, 0.5)
    u = np.linspace(0.1, 1.0, 4)[:, None]
    v = np.linspace(0.2, 2.0, 3)[None, :]
    pos, s1, s2, n, sqrt_g, mean = stacked_geometry(t, u, v)
    assert pos.shape == (4, 3, 3)
    assert sqrt_g.shape == (4, 3)
    fr = frame(t, u[2, 0], v[0, 1])
    np.testing.assert_allclose(pos[2, 1], fr.position, atol=1e-14)
    np.testing.assert_allclose(mean[2, 1], fr.mean_curvature, atol=1e-14)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ci.Sphere(0.0)
    with pytest.raises(ValueError):
        ci.Torus(1.0, 1.5)  # minor must be below major
    with pytest.raises(ValueError):
        ci.Catenoid(-1.0)
    for make, name in [(ci.Sphere, "radius"), (ci.Cylinder, "radius"), (ci.Catenoid, "waist")]:
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
                make(bad)
    for x_range, y_range in [((1.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (2.0, -2.0))]:
        with pytest.raises(ValueError, match="^empty domain rectangle$"):
            ci.MongeGraph(*[np.sin] * 6, x_range=x_range, y_range=y_range)


def test_monge_range_ends_are_gated_before_the_rectangle_check():
    # ("0", "1") and (True, 2) once built a graph over [0, 1] x [1, 2]
    refusals = [(bad, f"must be a real number, got {bad!r}") for bad in ("0", True, None)]
    refusals.append((math.nan, "must be a number, got nan"))
    for bad, rule in refusals:
        for axis, k in [("x", 0), ("x", 1), ("y", 0), ("y", 1)]:
            ranges = {"x_range": [0.0, 1.0], "y_range": [0.0, 1.0]}
            ranges[f"{axis}_range"][k] = bad
            with pytest.raises(ValueError, match=f"^{re.escape(f'{axis}_range[{k}] {rule}')}$"):
                ci.MongeGraph(*[np.sin] * 6, **ranges)
    # an unbounded graph is valid, and a numpy or integer end is cast to float
    g = ci.MongeGraph(*[np.sin] * 6, x_range=(-math.inf, math.inf), y_range=(np.int64(-1), 2))
    assert g.u_range == (-math.inf, math.inf) and g.v_range == (-1.0, 2.0)
    assert all(type(end) is float for end in g.u_range + g.v_range)
    assert g.contains(1e300, 0.5) and not g.contains(0.0, 3.0)


def test_torus_refuses_non_finite_radii():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.inf, math.nan):
            for major, minor, name in [(bad, 0.5, "R"), (2.0, bad, "r")]:
                with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
                    ci.Torus(major, minor)
        with pytest.raises(ValueError, match="^require 0 < minor < major radius$"):
            ci.Torus(1.0, 1.5)


@pytest.mark.parametrize("name,expected", [
    ("plane", ci.Plane()), ("sphere", ci.Sphere(1.0)), ("cylinder", ci.Cylinder(1.0)),
    ("torus", ci.Torus(2.0, 0.5)), ("catenoid", ci.Catenoid(1.0)), ("enneper", ci.Enneper()),
    ("saddle", ci.saddle()),
], ids=lambda x: x if isinstance(x, str) else "")
def test_surface_factory_defaults(name, expected):
    # the same class on the same parameters as direct construction
    got = ci.surface_from_name(f" {name.upper()} ")
    assert type(got) is type(expected)
    assert {k: v for k, v in vars(got).items() if not callable(v)} == \
        {k: v for k, v in vars(expected).items() if not callable(v)}
    u, v = np.meshgrid(np.linspace(0.2, 1.2, 4), np.linspace(-0.5, 0.5, 3))
    assert got.position(u, v).tobytes() == expected.position(u, v).tobytes()


def test_surface_factory():
    assert ci.surface_from_name("sphere", R=3.0).radius == 3.0
    assert ci.surface_from_name("torus").major == 2.0
    assert ci.surface_from_name("saddle").name == "saddle"
    with pytest.raises(ValueError, match="^unknown surface 'helicoid'$"):
        ci.surface_from_name("helicoid")
    with pytest.raises(ValueError, match=re.escape(
            "bad parameters for surface 'torus': require 0 < minor < major radius")):
        ci.surface_from_name("torus", R=1.0, r=2.0)


@pytest.mark.parametrize("name,params,refused", [
    ("sphere", {"r": 2.0}, "r"), ("plane", {"R": 2.0}, "R"),
    # named before any value is checked: the first such parameter given
    ("sphere", {"R": math.inf, "r": 2.0}, "r"), ("torus", {"r": -1.0, "c": 1.0}, "c"),
    ("saddle", {"extent": 1.0, "R": 1.0}, "extent"),
])
def test_surface_factory_refuses_a_parameter_the_surface_does_not_take(name, params, refused):
    with pytest.raises(ValueError, match=f"^surface '{name}' takes no {refused}$"):
        ci.surface_from_name(name, **params)


def test_monge_graph_uses_supplied_partials():
    # a generic bump; partials supplied analytically
    g = ci.MongeGraph(
        f=lambda x, y: np.sin(x) * np.cos(y),
        fx=lambda x, y: np.cos(x) * np.cos(y),
        fy=lambda x, y: -np.sin(x) * np.sin(y),
        fxx=lambda x, y: -np.sin(x) * np.cos(y),
        fxy=lambda x, y: -np.cos(x) * np.sin(y),
        fyy=lambda x, y: -np.sin(x) * np.cos(y),
        x_range=(-2.0, 2.0), y_range=(-2.0, 2.0), name="bump")
    for u, v in [(0.3, 0.4), (-1.2, 0.9), (1.5, -1.5)]:
        exact = frame(g, u, v).mean_curvature
        got = reference_numeric_mean_curvature(g, u, v, h=1e-4)
        assert abs(exact - got) <= 1e-5 * (1.0 + abs(exact))
