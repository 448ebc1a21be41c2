"""gradcheck's area-gradient oracle, complex_step_area_gradient: within
1e-14 of -star_sums / 2, relative in the max-norm over the mesh, on
jiggled open and closed stock meshes, with runs of isolated vertices
(whose rows are +0.0), on closed meshes of random connectivity and at
every power-of-two scale that TriMesh accepts; and within the central
difference's own error of the reference finite-difference loop."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import curvint as ci

from conftest import (STOCK, edge_flipped, flipped_meshes, isolated_vertex, jiggled_icosphere,
                      reference_fd_area_gradient, with_isolated_runs)


def assert_exact(mesh):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ci.complex_step_area_gradient(mesh)
    expected = -0.5 * ci.star_sums(mesh)
    err = np.abs(got - expected).max(initial=0.0)
    assert err <= 1e-14 * np.abs(expected).max(initial=0.0), err
    return got


STOCK_AND_ICO4 = [*STOCK, ("jiggled_ico4", jiggled_icosphere(4, 4))]


@pytest.mark.parametrize("name,mesh", STOCK_AND_ICO4, ids=[s[0] for s in STOCK_AND_ICO4])
def test_matches_star_sums(name, mesh):
    assert_exact(mesh)


@settings(max_examples=40)
@given(st.sampled_from([lambda: ci.make_grid(3), lambda: ci.make_icosphere(1, 1.0),
                        lambda: ci.make_tube(1.0, 2.0, 2, 6), lambda: ci.make_catenoid(1.0, 2, 6)]),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.05),
       st.lists(st.tuples(st.integers(0, 50), st.integers(1, 40)), max_size=4))
@example(lambda: ci.make_grid(3), 0, 0.02, [(5, 1), (16, 30)])
@example(lambda: ci.make_icosphere(1, 1.0), 1, 0.02, [(0, 40), (42, 40)])
def test_matches_star_sums_on_drawn_meshes(make, seed, jiggle, runs):
    base = make()
    rng = np.random.default_rng(seed)
    jiggled = base.with_positions(base.positions + jiggle * rng.standard_normal(base.positions.shape))
    mesh = with_isolated_runs(jiggled, [(min(a, base.n_vertices), n) for a, n in runs], seed)
    got = assert_exact(mesh)
    isolated = mesh.topology.face_counts == 0
    assert got[isolated].tobytes() == np.zeros((isolated.sum(), 3)).tobytes()


@settings(max_examples=30)
@given(flipped_meshes)
@example(edge_flipped(ci.make_icosphere(2), 600, 3))  # 3 to 21 faces a vertex
def test_matches_star_sums_on_random_connectivity(mesh):
    assert_exact(mesh)


@pytest.mark.parametrize("mesh", [jiggled_icosphere(2, 5), ci.make_catenoid(1.0, 4, 12),
                                  ci.make_grid(5)], ids=["jiggled_ico2", "catenoid", "grid5"])
def test_matches_star_sums_at_every_scale(mesh):
    # TriMesh refuses faces below MIN_FACE_AREA and areas that overflow
    accepted = []
    for k in range(-40, 300):
        try:
            scaled = mesh.with_positions(mesh.positions * 2.0 ** k)
        except ci.MeshValidationError:
            continue
        assert_exact(scaled)
        accepted.append(k)
    assert accepted == list(range(accepted[0], accepted[-1] + 1))
    assert accepted[0] <= -20 and accepted[-1] >= 256


@pytest.mark.parametrize("name,mesh", [*STOCK[:14], ("isolated_vertex", isolated_vertex())],
                         ids=[s[0] for s in STOCK[:14]] + ["isolated_vertex"])
def test_agrees_with_the_central_difference(name, mesh):
    # FD's own error: Richardson's |fd(h) - fd(2h)| / 3 for the truncation
    # plus eps * A / h for the cancellation, with a factor 2 of slack
    h = 1e-5
    fd = reference_fd_area_gradient(mesh, h)
    own = (np.abs(fd - reference_fd_area_gradient(mesh, 2 * h)).max() / 3
           + np.finfo(float).eps * ci.total_area(mesh) / h)
    assert np.abs(ci.complex_step_area_gradient(mesh) - fd).max() <= 2 * own
