"""The shared topology and the corner kernel: the per-face sums that
served the flow and laplacian_field, bitwise; the per-vertex reference
loops in conftest to roundoff of the star's scale, with the same errors
and flags; every per-vertex function as an exact slice of the
whole-mesh sums; non-manifold vertices as boundary vertices everywhere;
and the same closed-star and boundary decision on random face sets.
area_gradient and laplacian, now slices of whole-mesh results, against
their old loops."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvint as ci
from curvint.discrete import _laplacian, curvature_arrays
from curvint.mesh import MIN_FACE_AREA, CornerKernel, MeshTopology, triangle_areas

from conftest import (
    STOCK,
    interior_vertices,
    isolated_vertex,
    jiggled_icosphere,
    perturbed_meshes,
    reference_area_gradient,
    reference_boundary_vertices,
    reference_build_star,
    reference_curvature_field,
    reference_edge_lengths,
    reference_face_areas,
    reference_laplacian,
    reference_laplacian_field,
    reference_open_stars,
    reference_opposite_edges_close,
    reference_ring_areas,
    reference_star_sum,
    reference_star_sums,
    reference_vector_mean_curvature,
)


def bits(value):
    """A comparable form of a result in which every float is its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, ci.CurvatureSample):
        return (bits(value.vector), bits(value.magnitude), bits(value.direction),
                value.near_minimal)
    if isinstance(value, ci.VertexStar):
        return value.center, value.is_boundary, [
            (e.face, bits(e.area), e.opposite, bits(e.edge_length), bits(e.normal))
            for e in value.entries]
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
    boundary = reference_open_stars(mesh)
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
    flow = mesh.corner_kernel().curvature if field is not None and mesh.is_closed() else None
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


def test_vector_mean_curvature_is_a_row_of_curvature_arrays():
    # every field of the sample, boundary rows included; the grid's
    # interior B is exactly zero, and the median tolerance makes about
    # half the rows of each mesh near-minimal
    seen = set()
    for mesh in [ci.make_grid(5)] + perturbed_meshes(10):
        kernel = mesh.corner_kernel()
        magnitude = curvature_arrays(mesh)[1]
        median = float(np.median(magnitude * kernel.ring_areas / kernel.edge_lengths))
        for tol in (0.0, 1e-8, median):
            vec, magnitude, near_minimal, _ = curvature_arrays(mesh, tol)
            for v in range(mesh.n_vertices):
                expected = ci.CurvatureSample(
                    vec[v], float(magnitude[v]),
                    None if near_minimal[v] else vec[v] / magnitude[v], bool(near_minimal[v]))
                got = ci.vector_mean_curvature(mesh, v, tol, allow_boundary=True)
                assert bits(got) == bits(expected), (tol, v)
                seen.add((bool(near_minimal[v]), magnitude[v] == 0.0))
    assert seen == {(True, True), (True, False), (False, False)}


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


def merged_closed():
    """An icosphere with two vertices of face 7 merged: positions and
    topology of a mesh with two zero-area faces."""
    base = ci.make_icosphere(1, 1.0)
    a, b, _ = base.faces[7]
    positions = base.positions.copy()
    positions[a] = positions[b]
    return positions, base.topology


def merged_open():
    grid = ci.make_grid(4)
    positions = grid.positions.copy()
    positions[6] = positions[7]  # both interior
    return positions, grid.topology


def degenerate_closed():
    return ci.TriMesh(*merged_closed())


def degenerate_open():
    return ci.TriMesh(*merged_open())


MERGED = {degenerate_closed: merged_closed, degenerate_open: merged_open}


class RawMesh:
    """The arrays the reference loops read, without TriMesh's checks;
    hashable and weakly referenced, as the loops' memo keys are."""

    def __init__(self, positions, topology, **extra):
        self.positions, self.faces = positions, topology.faces
        self.n_vertices = topology.n_vertices
        vars(self).update(extra)


def assert_refused_when_built(make):
    """make builds a TriMesh with zero-area faces: it refuses the smallest
    face of the reference areas, whose corners the kernel gives nan B.
    Returns the refused face."""
    positions, topology = MERGED[make]()
    areas = reference_face_areas(RawMesh(positions, topology))
    worst = int(np.argmin(areas))
    assert areas[worst] < MIN_FACE_AREA
    assert np.isnan(CornerKernel(positions, topology).star_sums[topology.faces[worst]]).all()
    mesh, refused = attempt(make)
    assert mesh is None
    assert refused == (ci.MeshValidationError,
                       f"face {worst} is degenerate (area {areas[worst]:.3e})", worst)
    return worst


@pytest.mark.parametrize("make,error,first", [
    (isolated_vertex, ci.IsolatedVertexError, "vertex 0 has no incident faces"),
    (degenerate_closed, ci.MeshValidationError, None),
    (degenerate_open, ci.MeshValidationError, None),
])
def test_refusals_match_reference(make, error, first):
    # first is None where the refusal comes when the mesh is built, and
    # its message from the reference areas
    if first is None:
        assert error is ci.MeshValidationError
        assert_refused_when_built(make)
        return
    mesh = make()
    result = outcome(ci.curvature_field, mesh)
    assert result[0] is error
    assert result[1] == first
    assert_slices_are_exact(mesh)
    assert_matches_reference(mesh)


@pytest.mark.parametrize("make,boundary", [
    (two_tetrahedra, [0]),
    (doubly_covered_triangle, [0, 1, 2]),
])
def test_non_manifold_vertices_are_boundary_vertices(make, boundary):
    # closed by edge count, but B needs each one-ring to close into one
    # loop: every consumer treats these vertices as boundary vertices
    mesh = make()
    assert not reference_boundary_vertices(mesh).any()
    np.testing.assert_array_equal(np.flatnonzero(mesh.boundary_vertices()), boundary)
    assert not mesh.is_closed()
    field = ci.curvature_field(mesh)
    assert [v for v, sample in enumerate(field) if sample is None] == boundary
    for values in fields(mesh):
        lap = ci.laplacian_field(mesh, values)
        np.testing.assert_array_equal(np.flatnonzero(np.isnan(lap)), boundary)
    message = (f"mean curvature flow requires a closed mesh: vertex {boundary[0]} "
               "lies on the mesh boundary")
    assert refusal(ci.run_flow, mesh, 1e-3, 2) == (ci.BoundaryVertexError, message, None)
    assert refusal(ci.mcf_step, mesh, 1e-3) == (ci.BoundaryVertexError, message, None)
    assert_slices_are_exact(mesh)
    assert_matches_reference(mesh)
    assert_slices_match_reference(mesh)


def test_vertex_out_of_range():
    mesh = ci.make_grid(2)
    values = np.zeros(mesh.n_vertices)
    for v in (-1, mesh.n_vertices):
        for fn, ref in PAIRS + [(ci.area_gradient, reference_area_gradient)]:
            assert outcome(fn, mesh, v) == outcome(ref, mesh, v)
        assert outcome(ci.laplacian, mesh, v, values) == outcome(reference_laplacian, mesh, v, values)


PER_VERTEX = {
    "build_star": ci.build_star,
    "star_sum": ci.star_sum,
    "vector_mean_curvature": ci.vector_mean_curvature,
    "area_gradient": ci.area_gradient,
    "laplacian": lambda mesh, v: ci.laplacian(mesh, v, np.zeros(mesh.n_vertices)),
    "vertex_faces": lambda mesh, v: mesh.vertex_faces(v),
}


@pytest.mark.parametrize("name", PER_VERTEX)
def test_non_integer_vertex_is_refused_by_name(name):
    fn, mesh = PER_VERTEX[name], ci.make_icosphere(1, 1.0)
    # a bool is refused too: numpy would read it as a mask
    for v in (1.5, 2.0, np.float64(2.0), None, "3", True, np.True_):
        assert refusal(fn, mesh, v) == (
            ci.MeshValidationError, f"vertex index must be an integer, got {v!r}", None)
    for v in (np.int64(3), np.uint8(3), np.intp(41)):
        assert outcome(fn, mesh, v) == outcome(fn, mesh, int(v))


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
    if make in MERGED:
        # the slice at v would read a zero-area face: the mesh is refused
        # when it is built, naming a face of v's, as the reference star at
        # v refuses
        assert error is ci.MeshValidationError
        face = assert_refused_when_built(make)
        positions, topology = MERGED[make]()
        assert v in topology.faces[face]
        raw = RawMesh(positions, topology)
        refused = refusal(reference_laplacian, raw, v, positions[:, 0])
        assert refused[0] is error
        return
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
    # the corner pass of the merged grid (which TriMesh refuses) holds nan
    # at the zero-area faces' corners; the Laplacian of every other
    # interior vertex reads only its own faces and matches the reference
    positions, topology = merged_open()
    kernel = CornerKernel(positions, topology)
    mesh = RawMesh(positions, topology, corner_kernel=lambda: kernel)
    values = positions[:, 0] ** 2
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = _laplacian(mesh, values)
        for v in np.flatnonzero(~topology.boundary):
            lap = field[v]
            refused = refusal(reference_laplacian, mesh, int(v), values)
            if refused is not None:  # incident to the zero-area faces
                assert refused[0] is ci.MeshValidationError
                assert np.isnan(lap), v
                continue
            expected = reference_laplacian(mesh, int(v), values)
            assert abs(lap - expected) <= 1e-12 * max(1.0, abs(expected)), v
            checked += 1
    assert checked == 6


@settings(max_examples=60)
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
        return ci.total_area(mesh.with_positions(moved))

    fd = ci.central_gradient(area_of, positions[v], 1e-5)
    # relative to the sum of the per-face terms' sizes a_i / 2, which
    # cancel to zero at an area-critical vertex
    terms = 0.5 * sum(e.edge_length for e in reference_build_star(mesh, v).entries)
    assert np.linalg.norm(ci.area_gradient(mesh, v) - fd) <= 1e-6 * terms


# ---------------------------------------------------------------------------
# the column pass against np.cross, np.linalg.norm and np.add.at, bitwise,
# on jiggled meshes scaled by 2^k, with and without zero-area faces (which
# the kernel sums and TriMesh refuses)


@settings(max_examples=80)
@given(st.sampled_from([lambda: ci.make_grid(4), lambda: ci.make_icosphere(2, 1.0),
                        lambda: ci.make_tube(1.0, 2.0, 3, 8),
                        lambda: ci.make_catenoid(1.0, 3, 8)]),
       st.floats(0.0, 0.3), st.integers(-60, 60), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 3))
def test_column_pass_is_bitwise_the_reference(make, jiggle, k, seed, merged):
    base = make()
    rng = np.random.default_rng(seed)
    positions = base.positions + jiggle * rng.standard_normal(base.positions.shape)
    # merge two corners of some faces: zero areas and nan sums there
    for f in rng.integers(0, base.n_faces, merged):
        positions[base.faces[f, 0]] = positions[base.faces[f, 1]]
    positions *= 2.0 ** k
    mesh = SimpleNamespace(positions=positions, faces=base.faces, n_vertices=base.n_vertices)
    expected = [bits(x) for x in (reference_star_sums(mesh), reference_ring_areas(mesh),
                                  reference_edge_lengths(mesh), reference_face_areas(mesh))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = CornerKernel(positions, base.topology)
        got = [kernel.star_sums, kernel.ring_areas, kernel.edge_lengths, kernel.face_areas]
    assert [bits(x) for x in got] == expected
    assert merged == 0 or np.isnan(reference_star_sums(mesh)).any()
    # a TriMesh holds exactly these areas, or refuses the smallest
    areas = reference_face_areas(mesh)
    try:
        assert bits(ci.TriMesh(positions, base.faces).face_areas()) == expected[-1]
    except ci.MeshValidationError as exc:
        worst = int(np.argmin(areas))
        assert areas[worst] < MIN_FACE_AREA
        assert (exc.face, bits(exc.area)) == (worst, bits(float(areas[worst])))
    # on row inputs, as complex_step_area_gradient calls it (on complex corners)
    p = positions[base.faces[rng.permutation(base.n_faces)]]
    assert bits(triangle_areas(p[:, 0], p[:, 1], p[:, 2])) == bits(
        0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1))


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


@settings(max_examples=400)
@given(face_sets())
def test_closed_star_flag_matches_reference_walk(case):
    n, faces = case
    topology = MeshTopology(faces, n)
    for v in range(n):
        edges = [(f[(f.index(v) + 1) % 3], f[(f.index(v) + 2) % 3]) for f in faces if v in f]
        closed = bool(edges) and reference_opposite_edges_close(edges)
        assert bool(topology.closed_stars[v]) == closed, (v, edges)
        assert bool(topology.boundary[v]) == (bool(edges) and not closed), (v, edges)
    # an open edge always opens the star of both its ends
    assert not (reference_boundary_vertices(topology) & ~topology.boundary).any()
