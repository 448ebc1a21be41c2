import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import curvint as ci
from curvint import BoundaryVertexError

from conftest import bundled_meshes, interior_vertices, perturbed_meshes, random_rotation


def rel_vec_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-30)


def test_flat_grid_curvature_is_zero():
    g = ci.make_grid(16)
    for v in interior_vertices(g):
        sample = ci.vector_mean_curvature(g, v)
        star = ci.build_star(g, v)
        scale = star.total_edge_length / star.ring_area
        assert np.linalg.norm(sample.vector) <= 1e-12 * scale
        assert sample.near_minimal
        assert sample.direction is None


def test_sphere_sample_has_direction():
    m = ci.make_icosphere(2, 1.0)
    sample = ci.vector_mean_curvature(m, 17)
    assert not sample.near_minimal
    np.testing.assert_allclose(sample.vector,
                               sample.magnitude * sample.direction, atol=1e-12)


def test_pyramid_apex_curvature_is_axial():
    base = [[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]]
    apex = [0.0, 0.0, 0.8]
    faces = [[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 0]]
    pyramid = ci.TriMesh(base + [apex], faces)
    sample = ci.vector_mean_curvature(pyramid, 4)
    assert abs(sample.vector[0]) <= 1e-12
    assert abs(sample.vector[1]) <= 1e-12
    assert sample.vector[2] < 0  # raising the apex grows area, B opposes


def test_single_triangle_area_gradient():
    tri = ci.TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    np.testing.assert_allclose(ci.area_gradient(tri, 0), [-0.5, -0.5, 0.0], atol=1e-15)


def test_flat_grid_is_area_critical_inside():
    g = ci.make_grid(6)
    for v in interior_vertices(g):
        assert np.linalg.norm(ci.area_gradient(g, int(v))) <= 1e-13


def test_star_sum_is_minus_twice_area_gradient():
    meshes = [m for _, m in bundled_meshes()] + perturbed_meshes(6)
    for mesh in meshes:
        for v in range(mesh.n_vertices):
            ss = ci.star_sum(mesh, v)
            ag = ci.area_gradient(mesh, v)
            denom = max(np.linalg.norm(ss), 2.0 * np.linalg.norm(ag), 1e-30)
            assert np.linalg.norm(ss + 2.0 * ag) <= 1e-12 * max(denom, 1.0)


def test_area_gradient_matches_finite_differences():
    mesh = perturbed_meshes(4)[3]
    base = np.asarray(mesh.positions)
    for v in range(0, mesh.n_vertices, 3):
        def area_of(p, v=v):
            moved = base.copy()
            moved[v] = p
            return ci.total_area(mesh.with_positions(moved, allow_degenerate=True))

        fd = ci.central_gradient(area_of, base[v], 1e-5)
        assert rel_vec_err(ci.area_gradient(mesh, v), fd) <= 1e-6


def test_mesh_area_gradient_against_analytic_two_triangle_square():
    square = ci.TriMesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                        [[0, 1, 2], [0, 2, 3]])
    base = np.asarray(square.positions)

    def area_of(p):
        moved = base.copy()
        moved[1] = p
        return ci.total_area(square.with_positions(moved, allow_degenerate=True))

    fd = ci.central_gradient(area_of, base[1], 1e-5)
    np.testing.assert_allclose(fd, ci.area_gradient(square, 1), atol=1e-7)


def test_translation_invariance_of_star_sums():
    for name, mesh in bundled_meshes():
        total = np.zeros(3)
        scale = 0.0
        for v in range(mesh.n_vertices):
            star = ci.build_star(mesh, v)
            total += ci.star_sum(mesh, v)
            scale += star.total_edge_length
        assert np.linalg.norm(total) <= 1e-12 * scale, name


def test_rotation_equivariance():
    mesh = perturbed_meshes(3)[2]  # perturbed icosphere, closed
    rng = np.random.default_rng(9)
    q = random_rotation(rng)
    rotated = mesh.with_positions(mesh.positions @ q.T)
    for v in range(0, mesh.n_vertices, 5):
        b = ci.vector_mean_curvature(mesh, v).vector
        br = ci.vector_mean_curvature(rotated, v).vector
        assert np.linalg.norm(br - q @ b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_scale_covariance():
    mesh = perturbed_meshes(3)[2]
    s = 2.7
    scaled = mesh.with_positions(s * mesh.positions)
    for v in range(0, mesh.n_vertices, 5):
        b = ci.vector_mean_curvature(mesh, v).vector
        bs = ci.vector_mean_curvature(scaled, v).vector
        assert rel_vec_err(bs, b / s) <= 1e-10


# invariances on random jiggled meshes: B at every vertex (the half-ring
# value on the boundary), to 1e-12 of the star scale sum(a) / sum(A)

BASES = st.one_of(
    st.builds(ci.make_grid, st.integers(2, 6)),
    st.builds(ci.make_icosphere, st.integers(0, 2)),
    st.builds(ci.make_tube, st.just(1.0), st.just(2.0), st.integers(1, 4), st.integers(3, 10)),
    st.builds(ci.make_catenoid, st.just(1.0), st.integers(1, 4), st.integers(3, 10)),
)


@st.composite
def jiggled_meshes(draw):
    base = draw(BASES)
    edges = base.positions[base.faces] - base.positions[base.faces[:, [1, 2, 0]]]
    jiggle = draw(st.floats(0.0, 0.1)) * np.linalg.norm(edges, axis=2).min()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return base.with_positions(base.positions
                               + rng.uniform(-jiggle, jiggle, base.positions.shape))


def curvature_and_scale(mesh):
    kernel = mesh.corner_kernel()
    return (kernel.star_sums / kernel.ring_areas[:, None],
            kernel.edge_lengths / kernel.ring_areas)


def assert_same_curvature(b, expected, scale):
    err = np.linalg.norm(b - expected, axis=1)
    assert np.all(err <= 1e-12 * scale), float((err / scale).max())


@settings(max_examples=60, deadline=None)
@given(jiggled_meshes(), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_curvature_under_rigid_motion(mesh, seed, shift):
    q = random_rotation(np.random.default_rng(seed))
    moved = mesh.with_positions(mesh.positions @ q.T + shift)
    b, scale = curvature_and_scale(mesh)
    assert_same_curvature(curvature_and_scale(moved)[0], b @ q.T, scale)


@settings(max_examples=60, deadline=None)
@given(jiggled_meshes(), st.integers(0, 2 ** 32 - 1))
def test_curvature_under_relabelling(mesh, seed):
    # vertex v becomes label[v]; faces are shuffled and each is rotated
    # cyclically, which keeps its orientation
    rng = np.random.default_rng(seed)
    label = rng.permutation(mesh.n_vertices)
    positions = np.empty_like(mesh.positions)
    positions[label] = mesh.positions
    faces = label[mesh.faces][rng.permutation(mesh.n_faces)]
    shift = rng.integers(0, 3, mesh.n_faces)[:, None]
    faces = np.take_along_axis(faces, (np.arange(3) + shift) % 3, axis=1)
    relabelled = ci.TriMesh(positions, faces)
    b, scale = curvature_and_scale(mesh)
    assert_same_curvature(curvature_and_scale(relabelled)[0][label], b, scale)


@settings(max_examples=60, deadline=None)
@given(jiggled_meshes(), st.floats(0.01, 100.0))
def test_curvature_scales_inversely(mesh, s):
    scaled = mesh.with_positions(s * mesh.positions)
    b, scale = curvature_and_scale(mesh)
    assert_same_curvature(s * curvature_and_scale(scaled)[0], b, scale)


def test_boundary_vertex_refused_unless_allowed():
    g = ci.make_grid(4)
    with pytest.raises(BoundaryVertexError):
        ci.vector_mean_curvature(g, 0)
    sample = ci.vector_mean_curvature(g, 0, allow_boundary=True)
    assert np.all(np.isfinite(sample.vector))


def test_laplacian_of_affine_field_vanishes_on_flat_grid():
    g = ci.make_grid(16)
    values = 3.0 * g.positions[:, 0] - 2.0 * g.positions[:, 1] + 7.0
    for v in interior_vertices(g):
        assert abs(ci.laplacian(g, v, values)) <= 1e-10


def test_laplacian_quadratic_value_on_uniform_grid():
    # on the single-diagonal unit grid the one-ring quotient gives exactly
    # 8/3 for x^2 + y^2 at every interior vertex, at any resolution
    for n in (16, 32):
        g = ci.make_grid(n)
        values = g.positions[:, 0] ** 2 + g.positions[:, 1] ** 2
        lap = ci.laplacian_field(g, values)
        inner = lap[interior_vertices(g)]
        np.testing.assert_allclose(inner, 8.0 / 3.0, atol=1e-9)


def test_laplacian_of_coordinates_reproduces_curvature():
    for mesh in perturbed_meshes(4):
        inner = interior_vertices(mesh)
        for v in inner[:: max(1, len(inner) // 8)]:
            b = ci.vector_mean_curvature(mesh, int(v)).vector
            for k in range(3):
                lk = ci.laplacian(mesh, int(v), mesh.positions[:, k])
                assert abs(lk - b[k]) <= 1e-12 * max(1.0, abs(b[k]))


def test_laplacian_boundary_refused():
    g = ci.make_grid(4)
    with pytest.raises(BoundaryVertexError):
        ci.laplacian(g, 0, g.positions[:, 0])


def test_field_validation():
    g = ci.make_grid(2)
    v = int(interior_vertices(g)[0])
    with pytest.raises(ValueError):
        ci.laplacian(g, v, np.zeros(5))
    with pytest.raises(ValueError):
        ci.laplacian(g, v, np.full(g.n_vertices, np.nan))


def test_curvature_field_markers():
    g = ci.make_grid(8)
    field = ci.curvature_field(g)
    assert sum(1 for s in field if s is None) == 32  # 4 n boundary vertices
    assert sum(1 for s in field if s is not None) == 49
    assert all(s.near_minimal for s in field if s is not None)

    ico = ci.curvature_field(ci.make_icosphere(2, 1.0))
    assert all(s is not None for s in ico)
    assert len(ico) == 162

    tube = ci.make_tube(1.0, 2.0, 4, 12)
    marks = ci.curvature_field(tube)
    assert sum(1 for s in marks if s is None) == 24  # both rims


def test_vectorized_paths_match_per_vertex():
    for mesh in perturbed_meshes(5):
        ss = ci.star_sums(mesh)
        ra = ci.ring_areas(mesh)
        values = np.sin(mesh.positions[:, 0]) + mesh.positions[:, 2] ** 2
        lap = ci.laplacian_field(mesh, values)
        boundary = mesh.boundary_vertices()
        for v in range(mesh.n_vertices):
            np.testing.assert_allclose(ss[v], ci.star_sum(mesh, v), atol=1e-13)
            star = ci.build_star(mesh, v)
            assert abs(ra[v] - star.ring_area) <= 1e-13
            if boundary[v]:
                assert math.isnan(lap[v])
            else:
                assert abs(lap[v] - ci.laplacian(mesh, v, values)) <= 1e-12


def test_icosphere_curvature_points_inward():
    mesh = ci.make_icosphere(2, 1.0)
    for v in range(mesh.n_vertices):
        b = ci.vector_mean_curvature(mesh, v).vector
        outward = mesh.positions[v] / np.linalg.norm(mesh.positions[v])
        assert b @ outward < 0.0
