"""The shared topology and the corner kernel: the per-face sums that
served the flow and laplacian_field, bitwise; the per-vertex reference
loops in conftest to roundoff of the star's scale, with the same errors
and flags; every per-vertex function as an exact slice of the
whole-mesh sums; and the same closed-star decision on random face sets.
area_gradient and laplacian, now slices of whole-mesh results, against
their old loops."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvint as ci
from curvint.flow import _curvatures

from conftest import (
    bundled_meshes,
    interior_vertices,
    perturbed_meshes,
    reference_area_gradient,
    reference_boundary_vertices,
    reference_build_star,
    reference_curvature_field,
    reference_laplacian,
    reference_laplacian_field,
    reference_opposite_edges_close,
    reference_ring_areas,
    reference_star_sum,
    reference_star_sums,
    reference_vector_mean_curvature,
)


def jiggled_icosphere(level: int, seed: int) -> ci.TriMesh:
    base = ci.make_icosphere(level, 1.0)
    rng = np.random.default_rng(seed)
    return base.with_positions(base.positions
                               + (0.2 / 2 ** level) * rng.standard_normal(base.positions.shape))


def bits(value):
    """A comparable form of a result in which every float is its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, ci.CurvatureSample):
        return (bits(value.vector), bits(value.magnitude), bits(value.direction),
                value.near_minimal)
    if isinstance(value, list):
        return [bits(x) for x in value]
    return value


def attempt(fn, *args):
    """(result, None), or (None, (type, message, face)) of the
    CurvintError that fn raises."""
    try:
        return fn(*args), None
    except ci.CurvintError as exc:
        return None, (type(exc), str(exc), getattr(exc, "face", None))


def outcome(fn, *args):
    value, refused = attempt(fn, *args)
    return refused or ("ok", bits(value))


def refusal(fn, *args):
    return attempt(fn, *args)[1]


# the kernel sums slot by slot where the loops sum face by face
TOL = 1e-14


def assert_near(got, expected, ring_area, edge_length):
    """A result against the reference loop's: flags and indices exactly,
    values to TOL of the star's scale: sum(a) / sum(A) for B (and
    |B| times that for its direction), sum(a) for a star sum, sum(A) and
    sum(a) for a star's areas and edge lengths, 1 for its unit normals."""
    if isinstance(expected, ci.VertexStar):
        assert (got.center, got.is_boundary, [(e.face, e.opposite) for e in got.entries]) \
            == (expected.center, expected.is_boundary,
                [(e.face, e.opposite) for e in expected.entries])
        for g, e in zip(got.entries, expected.entries):
            assert abs(g.area - e.area) <= TOL * ring_area
            assert abs(g.edge_length - e.edge_length) <= TOL * edge_length
            assert np.abs(g.normal - e.normal).max() <= TOL
    elif isinstance(expected, ci.CurvatureSample):
        scale = edge_length / ring_area
        assert got.near_minimal == expected.near_minimal
        assert np.abs(got.vector - expected.vector).max() <= TOL * scale
        assert abs(got.magnitude - expected.magnitude) <= TOL * scale
        if expected.direction is not None:
            err = np.abs(got.direction - expected.direction).max()
            assert err <= 2 * TOL * scale / expected.magnitude
    else:
        assert np.abs(got - expected).max() <= TOL * edge_length


def assert_near_reference(fn, ref, mesh, v, *args):
    got, refused = attempt(fn, mesh, v, *args)
    expected, expected_refusal = attempt(ref, mesh, v, *args)
    assert refused == expected_refusal, (fn.__name__, v)
    if expected_refusal is None:
        star = reference_build_star(mesh, v)
        assert_near(got, expected, star.ring_area, star.total_edge_length)


PAIRS = [
    (ci.build_star, reference_build_star),
    (ci.star_sum, reference_star_sum),
    (ci.vector_mean_curvature, reference_vector_mean_curvature),
]


def assert_matches_reference(mesh, vertices=None):
    """The curvature field's refusal and entries, and every per-vertex
    function, at every vertex; or, given a subset of vertices, the field's
    entries and the per-vertex functions there."""
    boundary = reference_boundary_vertices(mesh)
    if vertices is None:
        vertices = range(mesh.n_vertices)
        assert refusal(ci.curvature_field, mesh) == refusal(reference_curvature_field, mesh)
    if refusal(ci.curvature_field, mesh) is None:
        field = ci.curvature_field(mesh)
        for v in vertices:
            if boundary[v]:
                assert field[v] is None
            else:
                assert_near_reference(lambda m, u: field[u], reference_vector_mean_curvature,
                                      mesh, v)
    for v in vertices:
        for fn, ref in PAIRS:
            assert_near_reference(fn, ref, mesh, v)
        assert_near_reference(ci.vector_mean_curvature, reference_vector_mean_curvature,
                              mesh, v, 1e-8, True)


def assert_slices_are_exact(mesh):
    """star_sum, vector_mean_curvature and the flow's B are rows of the
    whole-mesh results, bit for bit."""
    sums = ci.star_sums(mesh)
    field = None if refusal(ci.curvature_field, mesh) else ci.curvature_field(mesh)
    flow = _curvatures(mesh) if field is not None and mesh.is_closed() else None
    for v in range(mesh.n_vertices):
        if refusal(ci.star_sum, mesh, v) is None:
            assert bits(ci.star_sum(mesh, v)) == bits(sums[v]), v
        if field is not None and field[v] is not None:
            vector = bits(ci.vector_mean_curvature(mesh, v).vector)
            assert vector == bits(field[v].vector), v
            if flow is not None:
                assert vector == bits(flow[v]), v


def assert_sums_match_reference(mesh):
    for got, expected in [(ci.star_sums(mesh), reference_star_sums(mesh)),
                          (ci.ring_areas(mesh), reference_ring_areas(mesh))]:
        assert got.tobytes() == expected.tobytes()
    rng = np.random.default_rng(mesh.n_vertices)
    for values in (mesh.positions[:, 2], rng.standard_normal(mesh.n_vertices)):
        assert (ci.laplacian_field(mesh, values).tobytes()
                == reference_laplacian_field(mesh, values).tobytes())


STOCK = ([(name, m) for name, m in bundled_meshes()]
         + [(f"perturbed{k}", m) for k, m in enumerate(perturbed_meshes(10, 0.05))]
         + [("jiggled_ico3", jiggled_icosphere(3, 3))])


@pytest.mark.parametrize("name,mesh", STOCK, ids=[s[0] for s in STOCK])
def test_matches_reference(name, mesh):
    np.testing.assert_array_equal(mesh.boundary_vertices(), reference_boundary_vertices(mesh))
    assert_sums_match_reference(mesh)
    assert_slices_are_exact(mesh)
    assert_matches_reference(mesh)


def test_matches_reference_on_jiggled_ico5():
    # the reference loop takes seconds per pass at this size: sample it
    mesh = jiggled_icosphere(5, 5)
    assert_sums_match_reference(mesh)
    assert_slices_are_exact(mesh)
    assert_matches_reference(mesh, range(0, mesh.n_vertices, 97))


def test_topology_is_shared_and_kernel_is_not():
    mesh = ci.make_icosphere(2, 1.0)
    moved = mesh.with_positions(1.5 * mesh.positions)
    assert moved.topology is mesh.topology
    assert moved.faces is mesh.faces
    assert moved.corner_kernel() is not mesh.corner_kernel()
    assert moved.corner_kernel() is moved.corner_kernel()
    with pytest.raises(ci.MeshValidationError):
        mesh.with_positions(mesh.positions[:-1])


def two_tetrahedra():
    # closed by edge count, but vertex 0's opposite edges form two loops
    positions = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 0, 1],
                 [-1, 0, 0], [-1, 1, 0], [-1, 0, 1]]
    faces = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3],
             [0, 4, 5], [0, 6, 4], [0, 5, 6], [4, 6, 5]]
    return ci.TriMesh(positions, faces)


def doubly_covered_triangle():
    return ci.TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2], [0, 2, 1]])


def isolated_vertex():
    base = ci.make_icosphere(1, 1.0)
    return ci.TriMesh(np.vstack([[5.0, 5.0, 5.0], base.positions]), base.faces + 1)


def degenerate_closed():
    base = ci.make_icosphere(1, 1.0)
    a, b, _ = base.faces[7]
    positions = base.positions.copy()
    positions[a] = positions[b]
    return ci.TriMesh(positions, base.faces, allow_degenerate=True)


def degenerate_open():
    grid = ci.make_grid(4)
    positions = grid.positions.copy()
    positions[6] = positions[7]  # both interior
    return ci.TriMesh(positions, grid.faces, allow_degenerate=True)


@pytest.mark.parametrize("make,error,first", [
    (two_tetrahedra, ci.BoundaryVertexError, "vertex 0 lies on the mesh boundary"),
    (doubly_covered_triangle, ci.BoundaryVertexError, "vertex 0 lies on the mesh boundary"),
    (isolated_vertex, ci.IsolatedVertexError, "vertex 0 has no incident faces"),
    (degenerate_closed, ci.MeshValidationError, None),
    (degenerate_open, ci.MeshValidationError, None),
])
def test_refusals_match_reference(make, error, first):
    mesh = make()
    result = outcome(ci.curvature_field, mesh)
    assert result[0] is error
    if first is not None:
        assert result[1] == first
    assert_slices_are_exact(mesh)
    assert_matches_reference(mesh)


def test_vertex_out_of_range():
    mesh = ci.make_grid(2)
    values = np.zeros(mesh.n_vertices)
    for v in (-1, mesh.n_vertices):
        for fn, ref in PAIRS + [(ci.area_gradient, reference_area_gradient)]:
            assert outcome(fn, mesh, v) == outcome(ref, mesh, v)
        assert outcome(ci.laplacian, mesh, v, values) == outcome(reference_laplacian, mesh, v, values)


# ---------------------------------------------------------------------------
# area_gradient and laplacian against their per-face loops: the arithmetic
# changed, so values agree to a tolerance and refusals exactly


def assert_close_to_reference(fn, ref, *args):
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.asarray(ref(*args))
    except ci.CurvintError:
        assert outcome(fn, *args) == outcome(ref, *args), (fn.__name__, args[1])
        return
    got = np.asarray(fn(*args))
    # the loop divides by a degenerate face's zero area where the kernel
    # holds nan normals
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    err = np.linalg.norm((got - expected)[~nan])
    assert err <= 1e-12 * max(1.0, np.linalg.norm(expected[~nan])), (fn.__name__, args[1])


def fields(mesh):
    rng = np.random.default_rng(mesh.n_vertices)
    return [mesh.positions[:, 2], rng.standard_normal(mesh.n_vertices)]


def assert_slices_match_reference(mesh):
    for v in range(mesh.n_vertices):
        assert_close_to_reference(ci.area_gradient, reference_area_gradient, mesh, v)
        for values in fields(mesh):
            assert_close_to_reference(ci.laplacian, reference_laplacian, mesh, v, values)


@pytest.mark.parametrize("name,mesh", STOCK, ids=[s[0] for s in STOCK])
def test_slices_match_reference_loops(name, mesh):
    assert_slices_match_reference(mesh)
    for values in fields(mesh):
        field = ci.laplacian_field(mesh, values)
        for v in interior_vertices(mesh):
            assert bits(ci.laplacian(mesh, int(v), values)) == bits(float(field[v]))


@pytest.mark.parametrize("make,v,error", [
    (isolated_vertex, 0, ci.IsolatedVertexError),
    (two_tetrahedra, 0, ci.BoundaryVertexError),
    (doubly_covered_triangle, 0, ci.BoundaryVertexError),
    (lambda: ci.make_grid(4), 0, ci.BoundaryVertexError),
    (degenerate_closed, int(ci.make_icosphere(1, 1.0).faces[7, 0]), ci.MeshValidationError),
    (degenerate_open, 6, ci.MeshValidationError),
])
def test_slice_refusals_match_reference(make, v, error):
    mesh = make()
    values = mesh.positions[:, 0]
    result = outcome(ci.laplacian, mesh, v, values)
    assert result[0] is error
    assert result == outcome(reference_laplacian, mesh, v, values)
    assert_slices_match_reference(mesh)


def test_isolated_vertex_gradient_is_positive_zero():
    # a negative zero would print as -0 in the gradcheck CSV
    assert bits(ci.area_gradient(isolated_vertex(), 0)) == bits(np.zeros(3))


def test_laplacian_does_not_read_degenerate_face_elsewhere():
    mesh = degenerate_open()
    values = mesh.positions[:, 0] ** 2
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in interior_vertices(mesh):
            try:
                lap = ci.laplacian(mesh, int(v), values)
            except ci.MeshValidationError:
                continue  # incident to the degenerate faces
            assert np.isfinite(lap)
            checked += 1
    assert checked == 6


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([lambda: ci.make_grid(4), lambda: ci.make_icosphere(1, 1.0),
                        lambda: ci.make_tube(1.0, 2.0, 3, 8),
                        lambda: ci.make_catenoid(1.0, 3, 8)]),
       st.floats(0.0, 0.15), st.integers(0, 2 ** 32 - 1), st.data())
def test_area_gradient_matches_finite_differences(make, jiggle, seed, data):
    base = make()
    edges = base.positions[base.faces] - base.positions[base.faces[:, [1, 2, 0]]]
    scale = jiggle * np.linalg.norm(edges, axis=2).mean()
    rng = np.random.default_rng(seed)
    mesh = base.with_positions(base.positions + scale * rng.standard_normal(base.positions.shape))
    v = data.draw(st.integers(0, mesh.n_vertices - 1))
    positions = mesh.positions

    def area_of(p):
        moved = positions.copy()
        moved[v] = p
        return ci.total_area(mesh.with_positions(moved, allow_degenerate=True))

    fd = ci.central_gradient(area_of, positions[v], 1e-5)
    # relative to the sum of the per-face terms' sizes a_i / 2, which
    # cancel to zero at an area-critical vertex
    terms = 0.5 * sum(e.edge_length for e in reference_build_star(mesh, v).entries)
    assert np.linalg.norm(ci.area_gradient(mesh, v) - fd) <= 1e-6 * terms


# ---------------------------------------------------------------------------
# closed-star decision on random face sets


@st.composite
def face_sets(draw):
    n = draw(st.integers(3, 12))
    vertex = st.integers(0, n - 1)
    faces = draw(st.lists(st.lists(vertex, min_size=3, max_size=3, unique=True), max_size=4))
    # fans around a vertex, closed or not, with random orientation; two
    # fans at one center make a non-manifold star
    for _ in range(draw(st.integers(0, 3))):
        center = draw(vertex)
        ring = draw(st.lists(vertex.filter(lambda x: x != center), min_size=2,
                             max_size=min(7, n - 1), unique=True))
        closed = draw(st.booleans())
        for i in range(len(ring) - (0 if closed else 1)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            faces.append([center, b, a] if draw(st.booleans()) else [center, a, b])
    if faces:
        faces += draw(st.lists(st.sampled_from(faces), max_size=3))  # duplicates
    faces = draw(st.permutations(faces))
    return n, [draw(st.permutations(f)) for f in faces]


@settings(max_examples=400, deadline=None)
@given(face_sets())
def test_closed_star_flag_matches_reference_walk(case):
    n, faces = case
    topology = ci.MeshTopology(faces, n)
    for v in range(n):
        edges = [(f[(f.index(v) + 1) % 3], f[(f.index(v) + 2) % 3]) for f in faces if v in f]
        expected = bool(edges) and reference_opposite_edges_close(edges)
        assert bool(topology.closed_stars[v]) == expected, (v, edges)
