import math
import re

import numpy as np
import pytest

import curvint as ci
from curvint import (
    EvaluationError,
    QuadratureRule,
    central_gradient,
    default_rule,
    gauss_legendre,
    panel_nodes,
)
from curvint.numerics import _gauss_nodes


def integrate(f, a, b, rule):
    """Composite estimate of the integral of a vectorised f over [a, b]."""
    x, w = panel_nodes(a, b, rule)
    return w @ f(x)


def integrate_rect(f, u_span, v_span, rule):
    """Tensor-product estimate of the integral of a vectorised f(u, v)
    over a rectangle given as two (lo, hi) spans."""
    xu, wu = panel_nodes(*u_span, rule)
    xv, wv = panel_nodes(*v_span, rule)
    return wu @ f(xu[:, None], xv[None, :]) @ wv


def test_rule_well_formed():
    for n in (1, 2, 5, 16, 31):
        rule = gauss_legendre(n)
        assert len(rule.nodes) == n
        assert np.all(np.diff(rule.nodes) > 0)
        assert abs(rule.weights.sum() - 2.0) < 1e-12
        assert np.all(rule.weights > 0)
        # symmetric rule
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 40])
def test_nodes_match_numpy_leggauss(n):
    rule = gauss_legendre(n)
    x, w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(rule.nodes, x, atol=1e-14)
    np.testing.assert_allclose(rule.weights, w, atol=1e-14)


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.5, -0.5]), np.array([1.0, 1.0]))  # not increasing
    with pytest.raises(ValueError):
        QuadratureRule(np.array([-0.5, 0.5]), np.array([1.5, 1.5]))  # sum != 2
    with pytest.raises(ValueError):
        QuadratureRule(np.array([-0.5, 0.5]), np.array([-1.0, 3.0]))  # negative
    with pytest.raises(ValueError):
        gauss_legendre(4, panels=0)
    for nodes, weights, message in [
            ([-0.5, 0.5], [2.0], "nodes and weights must be 1-d arrays of equal length"),
            ([[-0.5, 0.5]], [[1.0, 1.0]], "nodes and weights must be 1-d arrays of equal length"),
            ([-1.0, 0.5], [1.0, 1.0], r"nodes must lie strictly inside \[-1, 1\]"),
            ([-0.5, 1.0], [1.0, 1.0], r"nodes must lie strictly inside \[-1, 1\]")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuadratureRule(np.array(nodes), np.array(weights))
    with pytest.raises(ValueError, match="^node count n must be an integer >= 1, got 0$"):
        gauss_legendre(0)


def test_rule_freezes_copies_of_its_arrays():
    nodes, weights = np.array([-0.5, 0.5]), np.ones(2)
    rule = QuadratureRule(nodes, weights)
    nodes[0], weights[:] = -0.25, 3.0  # the caller's arrays stay writable, the rule's unchanged
    assert rule.nodes.tolist() == [-0.5, 0.5] and rule.weights.tolist() == [1.0, 1.0]
    for array in (rule.nodes, rule.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # gauss_legendre's rule holds its cached roots bitwise: the copy changes no value
    rule = gauss_legendre(16, 8)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert [a.tobytes() for a in rule[:2]] == [a.tobytes() for a in _gauss_nodes(16)]
    np.testing.assert_allclose(rule.nodes, nodes, atol=1e-14)
    np.testing.assert_allclose(rule.weights, weights, atol=1e-14)
    assert not rule.nodes.flags.writeable and rule.panels == 8


def test_constant_interval():
    rule = gauss_legendre(4)
    assert abs(integrate(np.ones_like, 0.0, 1.0, rule) - 1.0) < 1e-15


def test_odd_power_cancels():
    rule = gauss_legendre(4)
    assert abs(integrate(lambda x: x ** 7, -1.0, 1.0, rule)) < 1e-14


def test_sine_closed_form():
    rule = gauss_legendre(16, panels=4)
    assert abs(integrate(np.sin, 0.0, math.pi, rule) - 2.0) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("panels", [1, 2, 3])
def test_exactness_on_random_polynomials(n, panels):
    rng = np.random.default_rng(7 * n + panels)
    rule = gauss_legendre(n, panels=panels)
    a, b = -1.0, 1.5
    for _ in range(5):
        coeffs = rng.uniform(-1.0, 1.0, 2 * n)  # degree 2n - 1
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(b) - poly.integ()(a)
        got = integrate(poly, a, b, rule)
        assert abs(got - exact) <= 1e-13


def test_panel_refinement_never_hurts():
    # low-order base rule so the errors stay far above roundoff
    errors = []
    for panels in (1, 2, 4, 8, 16):
        rule = gauss_legendre(2, panels=panels)
        err = abs(integrate(np.sin, 0.0, math.pi, rule) - 2.0)
        errors.append(err)
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse * (1.0 + 1e-9)


def test_panel_nodes_partition():
    rule = gauss_legendre(6, panels=5)
    x, w = panel_nodes(-2.0, 3.0, rule)
    assert len(x) == 30
    assert np.all(np.diff(x) > 0)
    assert abs(w.sum() - 5.0) < 1e-12


def test_rect_constant():
    rule = gauss_legendre(4)
    got = integrate_rect(lambda u, v: np.ones(np.broadcast(u, v).shape),
                         (0, 1), (0, 1), rule)
    assert abs(got - 1.0) < 1e-14


def test_rect_separable_polynomial():
    rule = gauss_legendre(4)
    got = integrate_rect(lambda u, v: u * v, (0, 2), (0, 3), rule)
    assert abs(got - 9.0) < 1e-12


def test_rect_product_of_sines():
    rule = gauss_legendre(16, panels=2)
    got = integrate_rect(lambda u, v: np.sin(u) * np.sin(v),
                         (0, math.pi), (0, math.pi), rule)
    assert abs(got - 4.0) < 1e-10


def test_central_gradient_squared_norm():
    f = lambda x: float(x @ x)
    got = central_gradient(f, np.array([1.0, 2.0, 3.0]), 1e-5)
    np.testing.assert_allclose(got, [2.0, 4.0, 6.0], atol=1e-8)


def test_central_gradient_constant():
    got = central_gradient(lambda x: 4.25, np.array([0.3, -0.7, 2.0]), 1e-5)
    np.testing.assert_allclose(got, [0.0, 0.0, 0.0], atol=1e-11)


def test_central_gradient_random_quadratics():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(3)
        x0 = rng.standard_normal(3)
        f = lambda x: float(x @ a @ x + b @ x)
        exact = 2.0 * a @ x0 + b
        got = central_gradient(f, x0, 1e-5)
        np.testing.assert_allclose(got, exact, atol=1e-8)


@pytest.mark.parametrize("h,message", [
    (0.0, "step h must be positive, got 0.0"),
    (-1e-5, "step h must be positive, got -1e-05"),
    (float("nan"), "step h must be finite, got nan"),
    (float("inf"), "step h must be finite, got inf"),
    (float("-inf"), "step h must be finite, got -inf"),
])
def test_central_gradient_bad_step_is_named(h, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        central_gradient(lambda x: 0.0, np.zeros(3), h)


def test_central_gradient_rejects_bad_input():
    with pytest.raises(ValueError):
        central_gradient(lambda x: 0.0, np.zeros(3), 0.0)
    with pytest.raises(EvaluationError):
        central_gradient(lambda x: float("nan"), np.zeros(3), 1e-5)


def test_default_rule_shape():
    rule = default_rule()
    assert len(rule.nodes) == 16
    assert rule.panels == 8


_ICO1 = ci.make_icosphere(1)
_RULE2 = gauss_legendre(2)

# entry point -> (a call on one count, the count's name, its least and
# greatest values); every count goes through numerics.checked_count
COUNTED = {
    "make_grid": (ci.make_grid, "grid resolution n", 1, None),
    "make_icosphere": (ci.make_icosphere, "subdivision level", 0, 6),
    "make_tube-n_u": (lambda n: ci.make_tube(1.0, 2.0, n, 8), "n_u", 1, None),
    "make_tube-n_v": (lambda n: ci.make_tube(1.0, 2.0, 4, n), "n_v", 3, None),
    "make_catenoid-n_u": (lambda n: ci.make_catenoid(1.0, n, 8), "n_u", 1, None),
    "make_catenoid-n_v": (lambda n: ci.make_catenoid(1.0, 4, n), "n_v", 3, None),
    "make_primitive-n": (lambda n: ci.make_primitive("grid", n=n), "grid resolution n", 1, None),
    "make_primitive-level": (lambda n: ci.make_primitive("icosphere", level=n),
                             "subdivision level", 0, 6),
    "check_flow": (lambda n: ci.check_flow(_ICO1, 1e-3, n), "step count n_steps", 0, None),
    "run_flow": (lambda n: ci.run_flow(_ICO1, 1e-3, n), "step count n_steps", 0, None),
    "gauss_legendre-n": (gauss_legendre, "node count n", 1, None),
    "gauss_legendre-panels": (lambda n: gauss_legendre(2, panels=n), "panels", 1, None),
    "QuadratureRule": (lambda n: QuadratureRule(_RULE2.nodes, _RULE2.weights, n), "panels", 1,
                       None),
}


def _outcome(result):
    """What two calls must agree on, each number with its type: the bytes
    of a mesh or an array, a surface's geometry at one point and the
    numbers it stores, and each field of a rule, region, flow trace,
    curvature sample or limit study."""
    if isinstance(result, ci.TriMesh):
        return result.positions.tobytes(), result.faces.tobytes()
    if isinstance(result, ci.ParametricSurface):
        numbers = sorted((k, v) for k, v in vars(result).items() if not callable(v))
        return _outcome(result.geometry(0.5, 0.5)), _outcome(numbers)
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    if hasattr(result, "_fields"):  # a record: a named tuple
        return type(result), _outcome(list(result))
    if isinstance(result, (tuple, list)):
        return tuple(map(_outcome, result))
    return type(result), result


@pytest.mark.parametrize("site", COUNTED)
def test_count_gate_refuses_before_any_work_and_takes_any_integer(site, monkeypatch):
    call, name, low, high = COUNTED[site]
    bound = f">= {low}" if high is None else f"from {low} to {high}"
    work = []  # meshes built and corner kernels read
    init, kernel = ci.TriMesh.__init__, ci.TriMesh.corner_kernel
    monkeypatch.setattr(ci.TriMesh, "__init__", lambda m, *args: work.append(m) or init(m, *args))
    monkeypatch.setattr(ci.TriMesh, "corner_kernel", lambda m: work.append(m) or kernel(m))
    bad_values = [2.5, math.nan, math.inf, True, np.True_, "3", None, low - 1]
    for bad in bad_values + ([] if high is None else [high + 1]):
        message = f"{name} must be an integer {bound}, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
    # no mesh was built and no flow state read: the gate comes first
    assert work == []
    good = max(low, 2)
    expected = _outcome(call(good))
    assert work or site.startswith(("gauss", "Quad", "check"))
    for same in (np.int64(good), np.array(good)):
        assert _outcome(call(same)) == expected


_BIG = ci.make_icosphere(1, 100.0)  # a dt of 2 shrinks it a little
_TORUS = ci.Torus(2.0, 0.5)

# entry point -> (a call on one real number, the number's name, its
# bound, and whether the bound itself is refused); every real number goes
# through numerics.checked_real. Among the calls are make_icosphere(1, "2"),
# make_tube(True, 2.0, 2, 4), run_flow(m, True, 1) and run_flow(m, "1e-3", 1),
# which built or stepped, and run_flow(m, np.array(2.0), 1), whose trace
# kept the 0-d array as its dt.
REAL = {
    "Sphere": (ci.Sphere, "radius", 0.0, True),
    "Cylinder": (ci.Cylinder, "radius", 0.0, True),
    "Torus-R": (lambda x: ci.Torus(x, 0.5), "R", 0.0, True),
    "Torus-r": (lambda x: ci.Torus(3.0, x), "r", 0.0, True),
    "Catenoid": (ci.Catenoid, "waist", 0.0, True),
    "saddle": (ci.saddle, "extent", 0.0, True),
    "make_icosphere": (lambda x: ci.make_icosphere(1, x), "radius", 0.0, True),
    "make_tube-radius": (lambda x: ci.make_tube(x, 2.0, 2, 4), "radius", 0.0, True),
    "make_tube-length": (lambda x: ci.make_tube(1.0, x, 2, 4), "length", 0.0, True),
    "make_catenoid": (lambda x: ci.make_catenoid(x, 2, 4), "waist", 0.0, True),
    "check_flow": (lambda x: ci.check_flow(_BIG, x, 1), "time step dt", 0.0, False),
    "run_flow": (lambda x: ci.run_flow(_BIG, x, 1), "time step dt", 0.0, False),
    "mcf_step": (lambda x: ci.mcf_step(_BIG, x), "time step dt", 0.0, False),
    "vector_mean_curvature": (lambda x: ci.vector_mean_curvature(_ICO1, 0, x), "tol_direction",
                              0.0, False),
    "curvature_arrays": (lambda x: ci.discrete.curvature_arrays(_ICO1, x), "tol_direction", 0.0,
                         False),
    "RectRegion-u0": (lambda x: ci.RectRegion(x, 3, 0, 1), "rectangle corner u0", None, False),
    "RectRegion-u1": (lambda x: ci.RectRegion(0, x, 0, 1), "rectangle corner u1", None, False),
    "RectRegion-v0": (lambda x: ci.RectRegion(0, 1, x, 3), "rectangle corner v0", None, False),
    "RectRegion-v1": (lambda x: ci.RectRegion(0, 1, 0, x), "rectangle corner v1", None, False),
    "DiskRegion-uc": (lambda x: ci.DiskRegion(x, 0.0, 1.0), "disk center uc", None, False),
    "DiskRegion-vc": (lambda x: ci.DiskRegion(0.0, x, 1.0), "disk center vc", None, False),
    "DiskRegion-rho": (lambda x: ci.DiskRegion(0.0, 0.0, x), "disk radius", 0.0, True),
    "shrinking_limit-center": (lambda x: ci.shrinking_limit(_TORUS, (x, 1.0), [0.2, 0.1], _RULE2),
                               "disk center uc", None, False),
    "shrinking_limit-radii": (lambda x: ci.shrinking_limit(_TORUS, (1.0, 1.0), [x, 0.1], _RULE2),
                              "disk radius", 0.0, True),
    "boundary_point": (lambda x: ci.boundary_point(ci.Plane(), ci.RectRegion(0.0, 1.0, 0.0, 1.0),
                                                   x), "boundary parameter s", None, False),
    "central_gradient": (lambda x: central_gradient(lambda p: p @ p, np.ones(3), x), "step h",
                         0.0, True),
}


@pytest.mark.parametrize("site", REAL)
def test_real_gate_refuses_before_any_work_and_takes_any_real(site, monkeypatch):
    call, name, low, strict = REAL[site]
    work = []  # meshes built, corner kernels read and surface geometry evaluated
    init, kernel = ci.TriMesh.__init__, ci.TriMesh.corner_kernel
    geometry = ci.ParametricSurface._geometry
    monkeypatch.setattr(ci.TriMesh, "__init__", lambda m, *args: work.append(m) or init(m, *args))
    monkeypatch.setattr(ci.TriMesh, "corner_kernel", lambda m: work.append(m) or kernel(m))
    monkeypatch.setattr(ci.ParametricSurface, "_geometry",
                        lambda s, *args: work.append(s) or geometry(s, *args))
    refusals = [(bad, f"must be a real number, got {bad!r}")
                for bad in (True, np.True_, "2", "1e-3", b"2", None, 1 + 0j, np.array([2.0]))]
    refusals += [(bad, f"must be finite, got {bad}") for bad in (math.nan, math.inf, -math.inf)]
    if low is not None:  # the bound itself when it is refused, else a value below it
        refusals.append((0, "must be positive, got 0.0") if strict else
                        (-1e-3, "must be nonnegative, got -0.001"))
    for bad, rule in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {rule}')}$"):
            call(bad)
    # no mesh was built and no geometry evaluated: the gate comes first
    assert work == []
    if low is not None and not strict:
        call(low)
    expected = _outcome(call(2))
    for same in (2.0, np.float64(2), np.int64(2), np.array(2.0)):
        assert _outcome(call(same)) == expected

