"""The whole-mesh finite-difference oracle of the area gradient: bitwise
equal to one central_gradient per vertex over rebuilt meshes (the loop
gradcheck ran before), on closed, open and jiggled meshes, with an
isolated vertex, at several steps and block sizes; blocks stay within
FD_BLOCK floats, also on drawn meshes with runs of isolated vertices; a
bad or overflowing step is a typed error."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import curvint as ci
from curvint import discrete

from conftest import (NO_SHRINK, STOCK, isolated_vertex, jiggled_icosphere,
                      reference_fd_area_gradient)


def assert_bitwise(mesh, h=1e-5, vertices=None):
    got = ci.fd_area_gradient(mesh, h)
    if vertices is not None:
        got = got[list(vertices)]
    expected = reference_fd_area_gradient(mesh, h, vertices)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name,mesh", STOCK, ids=[s[0] for s in STOCK])
def test_matches_reference(name, mesh):
    assert_bitwise(mesh)


@pytest.mark.parametrize("h", [1e-3, 1e-7, 0.25])
def test_matches_reference_at_other_steps(h):
    assert_bitwise(jiggled_icosphere(2, 7), h)
    assert_bitwise(ci.make_catenoid(1.0, 4, 12), h)


def test_matches_reference_on_jiggled_ico4():
    # many blocks of six probe rows; the reference loop takes about ten
    # seconds for every vertex, so it is sampled
    mesh = jiggled_icosphere(4, 4)
    assert_bitwise(mesh, vertices=range(0, mesh.n_vertices, 41))


def test_isolated_vertex_rows_are_positive_zero():
    mesh = isolated_vertex()
    got = ci.fd_area_gradient(mesh, 1e-5)
    assert got[0].tobytes() == np.zeros(3).tobytes()
    assert got.tobytes() == reference_fd_area_gradient(mesh, 1e-5).tobytes()


class BlockRecorder:
    """Stands in for numpy in `curvint.discrete`, recording the shape of
    every 2-D array made with `empty`."""

    def __init__(self):
        self.blocks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 2:
            self.blocks.append(shape)
        return np.empty(shape, *args, **kwargs)


def assert_blocks_within_the_cap(mesh, cap):
    expected = reference_fd_area_gradient(mesh, 1e-5)
    recorder = BlockRecorder()
    with mock.patch.object(discrete, "FD_BLOCK", cap), mock.patch.object(discrete, "np", recorder):
        got = ci.fd_area_gradient(mesh, 1e-5)
    assert got.tobytes() == expected.tobytes()
    rows = [r for r, _ in recorder.blocks]
    assert {f for _, f in recorder.blocks} == {mesh.n_faces}
    assert sum(rows) == 6 * mesh.n_vertices
    # one row per block when a row alone is over the cap
    assert max(rows) == min(mesh.n_vertices, max(1, cap // mesh.n_faces))
    assert max(r * f for r, f in recorder.blocks) <= max(cap, mesh.n_faces)


@pytest.mark.parametrize("cap", [1, 500, 4096, discrete.FD_BLOCK])
def test_blocks_stay_within_the_cap(cap):
    assert_blocks_within_the_cap(jiggled_icosphere(2, 2), cap)


def with_isolated_runs(mesh, runs, seed):
    """mesh with runs of isolated vertices inserted: (at, count) puts
    count new vertices, at random positions, before old vertex at."""
    at = [a for a, count in runs for _ in range(count)]
    isolated = np.insert(np.zeros(mesh.n_vertices, dtype=bool), at, True)
    positions = np.random.default_rng(seed).standard_normal((len(isolated), 3))
    positions[~isolated] = mesh.positions
    return ci.TriMesh(positions, np.flatnonzero(~isolated)[mesh.faces])


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(st.sampled_from([lambda: ci.make_grid(3), lambda: ci.make_icosphere(1, 1.0),
                        lambda: ci.make_tube(1.0, 2.0, 2, 6), lambda: ci.make_catenoid(1.0, 2, 6)]),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 50), st.integers(1, 40)), max_size=4),
       st.integers(1, 1 << 16))
@example(lambda: ci.make_grid(3), 0, [(5, 1), (16, 30)], 1)
@example(lambda: ci.make_icosphere(1, 1.0), 1, [(0, 40), (42, 40)], 800)
def test_blocks_stay_within_the_cap_on_drawn_meshes(make, seed, runs, cap):
    # isolated vertices in runs leave some vertex blocks without corners
    base = make()
    rng = np.random.default_rng(seed)
    jiggled = base.positions + 0.02 * rng.standard_normal(base.positions.shape)
    runs = [(min(a, base.n_vertices), count) for a, count in runs]
    assert_blocks_within_the_cap(with_isolated_runs(base.with_positions(jiggled), runs, seed), cap)


@pytest.mark.parametrize("h,message", [
    (0.0, "step h must be positive"),
    (-1e-5, "step h must be positive"),
    (float("nan"), "step h must be finite, got nan"),
    (float("inf"), "step h must be finite, got inf"),
    (float("-inf"), "step h must be finite, got -inf"),
])
def test_bad_step_is_named(h, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ci.fd_area_gradient(ci.make_icosphere(1, 1.0), h)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ci.central_gradient(lambda x: 0.0, np.zeros(3), h)


@pytest.mark.parametrize("make,vertex", [
    (lambda: ci.make_icosphere(2, 1.0), 0),
    (isolated_vertex, 1),  # moving vertex 0 changes no face
])
def test_overflowing_probe_names_the_first_vertex(make, vertex):
    mesh = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ci.EvaluationError) as err:
            ci.fd_area_gradient(mesh, 1e308)
    assert str(err.value) == f"total area is not finite at vertex {vertex} moved by +h along x"
