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
    (0.0, "step h must be positive"),
    (-1e-5, "step h must be positive"),
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
    """What two calls must agree on: bytes of a mesh, a rule's arrays and
    panel count, a flow's trace and final mesh."""
    if isinstance(result, ci.TriMesh):
        return result.positions.tobytes(), result.faces.tobytes()
    if isinstance(result, QuadratureRule):
        assert type(result.panels) is int
        return result.nodes.tobytes(), result.weights.tobytes(), result.panels
    if isinstance(result, tuple):
        return result[0], _outcome(result[1])
    return result


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
