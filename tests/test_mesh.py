import io
import math
import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvint as ci
from curvint import IsolatedVertexError, MeshValidationError, ParseError
from curvint import mesh as mesh_mod

from conftest import (FACE_ERROR_FIXTURES, MALFORMED_FIXTURES, NON_FINITE_FIXTURES, STOCK,
                      bundled_meshes, interior_vertices, jiggled_icosphere, perturbed_meshes,
                      reference_make_catenoid, reference_make_grid, reference_make_icosphere,
                      reference_make_tube, reference_mesh_to_text, reference_parse_obj,
                      reference_parse_off, suffixed)


MINIMAL_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


def test_minimal_off_document():
    m = ci.load_mesh(io.StringIO(MINIMAL_OFF), fmt="off")
    assert m.n_vertices == 3
    assert m.n_faces == 1
    np.testing.assert_array_equal(m.faces, [[0, 1, 2]])


def test_obj_slash_suffixes_ignored():
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"
    m = ci.load_mesh(text, fmt="obj")
    np.testing.assert_array_equal(m.faces, [[0, 1, 2]])


def test_obj_ignores_other_records_and_comments():
    text = ("# comment\nmtllib foo.mtl\no thing\nv 0 0 0\nvn 0 0 1\nvt 0 0\n"
            "v 1 0 0\nv 0 1 0\ns off\nf 1 2 3\n")
    m = ci.load_mesh(text, fmt="obj")
    assert m.n_vertices == 3
    assert m.n_faces == 1


def test_obj_quad_fan_triangulated():
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    m = ci.load_mesh(text, fmt="obj")
    np.testing.assert_array_equal(m.faces, [[0, 1, 2], [0, 2, 3]])


def test_off_polygon_fan_triangulated():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    m = ci.load_mesh(text, fmt="off")
    np.testing.assert_array_equal(m.faces, [[0, 1, 2], [0, 2, 3]])


def test_save_single_triangle_off_exact_text():
    m = ci.TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert ci.mesh_to_text(m, "off") == MINIMAL_OFF


@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_round_trip_over_primitives(fmt):
    for name, mesh in bundled_meshes():
        text = ci.mesh_to_text(mesh, fmt)
        again = ci.load_mesh(text, fmt=fmt)
        np.testing.assert_array_equal(again.faces, mesh.faces, err_msg=name)
        # 17 significant digits round-trip float64 exactly
        np.testing.assert_array_equal(again.positions, mesh.positions, err_msg=name)


def test_save_and_load_paths(tmp_path):
    mesh = ci.make_icosphere(1, 1.0)
    for suffix in ("obj", "off"):
        path = tmp_path / f"mesh.{suffix}"
        ci.save_mesh(mesh, path)
        again = ci.load_mesh(path)
        np.testing.assert_array_equal(again.faces, mesh.faces)
        np.testing.assert_array_equal(again.positions, mesh.positions)
        # an open file: the format from its name, or as given
        with open(path, "w") as f:
            ci.save_mesh(mesh, f)
        assert path.read_text() == ci.mesh_to_text(mesh, suffix)
        out = io.StringIO()
        ci.save_mesh(mesh, out, fmt=suffix)
        assert out.getvalue() == ci.mesh_to_text(mesh, suffix)


def test_undecodable_file_is_named_from_a_path_or_an_open_file(tmp_path):
    path = tmp_path / "mesh.off"
    path.write_bytes(b"OFF\n\xff\n")
    with pytest.raises(ParseError) as err:
        ci.load_mesh(path)
    assert str(err.value) == f"{path}:1: not a text file"
    with open(path, "rb") as f, pytest.raises(ParseError) as err:
        ci.load_mesh(f)
    assert str(err.value) == f"{path}:1: not a text file"


@pytest.mark.parametrize("fmt", ["off", "obj"])
def test_empty_str_is_text_and_other_one_line_strs_are_paths(fmt, tmp_path, monkeypatch):
    def outcome(source):
        try:
            mesh = ci.load_mesh(source, fmt=fmt)
        except Exception as exc:
            return type(exc), str(exc)
        return mesh.positions.tobytes(), mesh.faces.tobytes()

    # "" reads as an empty file, not the working directory
    assert outcome("") == outcome(io.StringIO(""))
    if fmt == "off":
        assert outcome("") == (ParseError, "line 1: empty file, expected OFF header")
    # a Path, or a non-empty str without a newline, names a file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError):
        ci.load_mesh("OFF", fmt=fmt)
    (tmp_path / "OFF").write_text(MINIMAL_OFF)
    for source in ("OFF", tmp_path / "OFF"):
        assert outcome(source) == outcome(io.StringIO(MINIMAL_OFF))


def test_format_inference(tmp_path):
    def message(call):
        with pytest.raises(ValueError) as err:
            call()
        return str(err.value)

    text = "cannot infer mesh format; pass fmt='obj' or 'off'"
    assert message(lambda: ci.load_mesh(MINIMAL_OFF)) == text  # no name, no fmt
    assert message(lambda: ci.save_mesh(ci.make_grid(1), io.StringIO())) == text
    assert message(lambda: ci.mesh_to_text(ci.make_grid(1), "ply")) == "unknown mesh format 'ply'"
    # a name without a known suffix is named: a path, or an open file
    path = tmp_path / "mesh.ply"
    named = f"cannot infer mesh format from '{path}'; use a .obj or .off name"
    assert message(lambda: ci.save_mesh(ci.make_grid(1), path)) == named
    assert not path.exists()
    path.write_text(MINIMAL_OFF)
    assert message(lambda: ci.load_mesh(path)) == named
    with open(path) as f:
        assert message(lambda: ci.load_mesh(f)) == named
    with open(path, "a") as f:
        assert message(lambda: ci.save_mesh(ci.make_grid(1), f)) == named
    assert path.read_text() == MINIMAL_OFF


@pytest.mark.parametrize("label,fmt,text,line", MALFORMED_FIXTURES,
                         ids=[f[0] for f in MALFORMED_FIXTURES])
def test_malformed_inputs_report_line(label, fmt, text, line):
    with pytest.raises(ParseError) as err:
        ci.load_mesh(io.StringIO(text), fmt=fmt)
    assert err.value.line == line


OVERSIZED_COUNTS = [
    ("OFF\n1000000000000 0 0\n0 0 0\n", "line 4: unexpected end of file, expected vertex 1"),
    ("OFF\n100000000000000000000 0 0\n", "line 3: unexpected end of file, expected vertex 0"),
]


@pytest.mark.parametrize("text,message", OVERSIZED_COUNTS)
def test_oversized_vertex_count_allocates_nothing(text, message):
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            ci.load_mesh(text, fmt="off")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 100_000


@pytest.mark.parametrize("label,fmt,text,line,vertex", NON_FINITE_FIXTURES,
                         ids=[f[0] for f in NON_FINITE_FIXTURES])
def test_non_finite_coordinate_names_its_line(label, fmt, text, line, vertex, tmp_path):
    message = f"vertex {vertex} has a non-finite coordinate"
    with pytest.raises(ParseError) as err:
        ci.load_mesh(text, fmt=fmt)
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)
    path = tmp_path / f"{label}.{fmt}"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        ci.load_mesh(path)
    assert str(err.value) == f"{path}:{line}: {message}"


def test_face_index_beyond_int64():
    positions = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    for huge in (2 ** 63, 10 ** 23, -10 ** 23, 1e30):  # an integral float misses one too
        with pytest.raises(MeshValidationError) as err:
            ci.TriMesh(positions, [[0, 1, 2], [0, 1, huge]])
        assert (str(err.value), err.value.face) == ("face 1 references a missing vertex", 1)
    # the first face that misses a vertex is named, whatever its index
    with pytest.raises(MeshValidationError) as err:
        ci.TriMesh(positions, [[0, 1, 2], [0, 1, 3], [0, 1, 10 ** 23]])
    assert err.value.face == 1


@pytest.mark.parametrize("faces,face", [
    (np.array([[0.0, 1.0, 2.5]]), 0),  # not truncated to [0, 1, 2]
    ([[0, 1, 2], [0, 1, math.nan]], 1),
    ([[0, 1, 2], [2, 1, 0], [0, math.inf, 2]], 2),
    ([[0, 1, 2], [0, 1, -math.inf]], 1),
    ([[0, 1, 2], [0, 1, 10 ** 23], [0.5, 1, 2]], 2),  # the float makes the row object
    (np.array([[True, False, True]]), 0),  # a bool is no index
    (np.array([[0, True, 2]], dtype=object), 0),
])
def test_face_index_that_is_not_an_integer_is_refused_naming_its_face(faces, face):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshValidationError) as err:
            ci.TriMesh(np.eye(3), faces)
    assert (str(err.value), err.value.face) == (
        f"face {face} has an index that is not an integer", face)


def test_ragged_faces_are_refused_as_a_shape():
    with pytest.raises(MeshValidationError, match=r"^faces must have shape \(F, 3\)$"):
        ci.TriMesh(np.eye(3), [[0, 1, 2], [0, 1]])


@pytest.mark.parametrize("faces", [np.array([[0.0, 1.0, 2.0]]), [[0.0, 1, 2.0]],
                                   np.array([[0, 1, 2]], dtype=np.uint8), [[False, True, 2]]])
def test_integral_face_values_give_the_int_mesh(faces):
    mesh, expected = ci.TriMesh(np.eye(3), faces), ci.TriMesh(np.eye(3), [[0, 1, 2]])
    assert mesh.faces.dtype == np.int64
    assert mesh.faces.tobytes() == expected.faces.tobytes()


def test_face_index_out_of_range_is_validation_error():
    with pytest.raises(MeshValidationError):
        ci.load_mesh("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n", fmt="obj")


@pytest.mark.parametrize("label,fmt,text,line,face,what", FACE_ERROR_FIXTURES,
                         ids=[f[0] for f in FACE_ERROR_FIXTURES])
def test_face_error_names_line_and_face(label, fmt, text, line, face, what, tmp_path):
    message = f"face {face} {what}"
    with pytest.raises(MeshValidationError) as err:
        ci.load_mesh(text, fmt=fmt)
    assert (str(err.value), err.value.face) == (f"line {line}: {message}", face)
    path = tmp_path / f"{label}.{fmt}"
    path.write_text(text)
    with pytest.raises(MeshValidationError) as err:
        ci.load_mesh(path)
    assert (str(err.value), err.value.face) == (f"{path}:{line}: {message}", face)


def test_obj_faces_may_precede_their_vertices():
    m = ci.load_mesh("f 1 2 3\nv 0 0 0\nv 1 0 0\nv 0 1 0\n", fmt="obj")
    np.testing.assert_array_equal(m.faces, [[0, 1, 2]])


def test_constructor_validation():
    with pytest.raises(MeshValidationError):
        ci.TriMesh([[0, 0, 0]], [[0, 0, 0]])  # repeated vertex
    with pytest.raises(MeshValidationError) as err:
        ci.TriMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])  # collinear
    assert (str(err.value), err.value.face, err.value.area) == (
        "face 0 is degenerate (area 0.000e+00)", 0, 0.0)
    with pytest.raises(MeshValidationError, match="^positions must be finite$"):
        ci.TriMesh([[0, 0, float("nan")]], np.zeros((0, 3), dtype=int))
    with pytest.raises(MeshValidationError, match=r"^positions must have shape \(V, 3\)$"):
        ci.TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    with pytest.raises(MeshValidationError, match=r"^faces must have shape \(F, 3\)$"):
        ci.TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2, 0]])


def test_grid_counts_and_area():
    g = ci.make_grid(1)
    assert g.n_vertices == 4
    assert g.n_faces == 2
    assert abs(ci.total_area(g) - 1.0) <= 1e-12
    for n in (2, 5, 16):
        assert abs(ci.total_area(ci.make_grid(n)) - 1.0) <= 1e-12


def test_icosphere_combinatorics():
    m0 = ci.make_icosphere(0, 1.0)
    assert (m0.n_vertices, m0.n_faces) == (12, 20)
    m2 = ci.make_icosphere(2, 1.0)
    assert (m2.n_vertices, m2.n_faces) == (162, 320)
    assert m2.is_closed()


def test_icosphere_area_approaches_sphere_from_below():
    area3 = ci.total_area(ci.make_icosphere(3, 1.0))
    assert area3 < 4.0 * math.pi
    assert (4.0 * math.pi - area3) / (4.0 * math.pi) <= 0.01


def test_icosahedron_closed_form_area():
    m = ci.make_icosphere(0, 1.0)
    edge = np.linalg.norm(m.positions[m.faces[0][0]] - m.positions[m.faces[0][1]])
    assert abs(ci.total_area(m) - 5.0 * math.sqrt(3.0) * edge ** 2) <= 1e-12


def test_total_area_matches_independent_summation():
    mesh = perturbed_meshes(3)[2]
    acc = 0.0
    for a, b, c in mesh.faces:
        pa, pb, pc = mesh.positions[a], mesh.positions[b], mesh.positions[c]
        # Heron-free independent path: direct cross product in pure python
        ux, uy, uz = pb - pa
        vx, vy, vz = pc - pa
        cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        acc += 0.5 * math.sqrt(cx * cx + cy * cy + cz * cz)
    assert abs(acc - ci.total_area(mesh)) <= 1e-12 * max(1.0, acc)


def test_tube_and_catenoid_boundaries():
    tube = ci.make_tube(1.0, 2.0, 4, 12)
    boundary = tube.boundary_vertices()
    assert boundary.sum() == 2 * 12  # two rims
    cat = ci.make_catenoid(1.0, 4, 12)
    assert cat.boundary_vertices().sum() == 2 * 12
    assert not ci.make_icosphere(1, 1.0).boundary_vertices().any()


@pytest.mark.parametrize("kind,params,expected", [
    ("grid", {}, ci.make_grid(8)),
    ("Icosphere ", {}, ci.make_icosphere(2, 1.0)),
    ("tube", {"R": 0.5, "n_v": 5}, ci.make_tube(0.5, 2.0, 8, 5)),
    ("catenoid", {"c": 2, "n_u": 3}, ci.make_catenoid(2.0, 3, 16)),
])
def test_primitive_defaults(kind, params, expected):
    mesh = ci.make_primitive(kind, **params)
    assert mesh.positions.tobytes() == expected.positions.tobytes()
    assert mesh.faces.tobytes() == expected.faces.tobytes()


@pytest.mark.parametrize("kind,params,name", [
    ("grid", {"level": 4}, "level"), ("grid", {"n": 4, "R": 3.0}, "R"),
    ("icosphere", {"n": 5}, "n"), ("icosphere", {"level": 1, "n_u": 4}, "n_u"),
    ("tube", {"c": 1.0}, "c"), ("catenoid", {"n_v": 8, "L": 2.0, "level": 1}, "L"),
])
def test_primitive_refuses_a_parameter_its_kind_does_not_take(kind, params, name):
    # named before any value is checked: the first such parameter given
    with pytest.raises(ValueError, match=f"^primitive '{kind}' takes no {name}$"):
        ci.make_primitive(kind, **params)


def test_primitive_parameter_validation():
    with pytest.raises(ValueError):
        ci.make_grid(0)
    with pytest.raises(ValueError):
        ci.make_icosphere(7, 1.0)
    for make in (lambda n_u, n_v: ci.make_tube(1.0, 2.0, n_u, n_v),
                 lambda n_u, n_v: ci.make_catenoid(1.0, n_u, n_v)):
        for n_u, n_v, message in ((1, 2, "n_v must be an integer >= 3, got 2"),
                                  (0, 8, "n_u must be an integer >= 1, got 0")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                make(n_u, n_v)
    with pytest.raises(ValueError):
        ci.make_primitive("moebius")
    # refused by name before any sampling, so without a RuntimeWarning
    for bad in (math.nan, math.inf, -math.inf):
        for make, name in [(lambda x: ci.make_tube(x, 2.0, 4, 8), "radius"),
                           (lambda x: ci.make_tube(1.0, x, 4, 8), "length"),
                           (lambda x: ci.make_catenoid(x, 4, 8), "waist"),
                           (lambda x: ci.make_icosphere(1, x), "radius")]:
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
                make(bad)
    for make, name, bad in [(lambda: ci.make_tube(0.0, 2.0, 4, 8), "radius", 0.0),
                            (lambda: ci.make_tube(1.0, -1.0, 4, 8), "length", -1.0),
                            (lambda: ci.make_catenoid(0.0, 4, 8), "waist", 0.0),
                            (lambda: ci.make_icosphere(1, -2.0), "radius", -2.0)]:
        with pytest.raises(ValueError, match=f"^{name} must be positive, got {bad}$"):
            make()


def assert_same_mesh(got, expected):
    assert got.positions.shape == expected.positions.shape
    assert got.positions.dtype == expected.positions.dtype
    assert got.positions.tobytes() == expected.positions.tobytes()
    assert got.faces.shape == expected.faces.shape
    assert got.faces.dtype == expected.faces.dtype
    assert got.faces.tobytes() == expected.faces.tobytes()


def test_grid_is_the_reference_grid():
    for n in range(1, 65):
        assert_same_mesh(ci.make_grid(n), reference_make_grid(n))


@pytest.mark.parametrize("radius", [1e-3, 0.1, 1, 3.7, 1e3])
def test_tube_is_the_reference_tube(radius):
    for length in (0.5, 2.0, 100.0):
        for n_u in (1, 2, 5, 16, 64):
            for n_v in (3, 4, 7, 32, 64):
                assert_same_mesh(ci.make_tube(radius, length, n_u, n_v),
                                 reference_make_tube(radius, length, n_u, n_v))


# c > 2 samples beyond Catenoid.u_range, as the hand-built catenoid did
@pytest.mark.parametrize("waist", [1e-3, 0.1, 0.5, 1, 2.0, 2.5, 5.0])
def test_catenoid_is_the_reference_catenoid(waist):
    for n_u in (1, 2, 5, 16, 19, 64):
        for n_v in (3, 4, 7, 32, 64):
            assert_same_mesh(ci.make_catenoid(waist, n_u, n_v),
                             reference_make_catenoid(waist, n_u, n_v))


@pytest.mark.parametrize("radius", [1e-3, 1, 1e3])
def test_icosphere_is_the_reference_icosphere(radius):
    for level in range(7):
        assert_same_mesh(ci.make_icosphere(level, radius), reference_make_icosphere(level, radius))


def test_star_on_grid_interior_and_corner():
    g = ci.make_grid(8)
    center = 4 * 9 + 4
    star = ci.build_star(g, center)
    assert len(star.entries) == 6
    assert not star.is_boundary
    corner = ci.build_star(g, 0)
    assert corner.is_boundary


def test_star_single_triangle_values():
    tri = ci.TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    star = ci.build_star(tri, 0)
    assert star.is_boundary
    entry = star.entries[0]
    assert abs(entry.edge_length - math.sqrt(2.0)) <= 1e-15
    np.testing.assert_allclose(entry.normal,
                               [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0],
                               atol=1e-15)
    assert abs(entry.area - 0.5) <= 1e-15


def test_star_normal_invariants_on_primitives():
    for name, mesh in bundled_meshes():
        p0, p1, p2 = (mesh.positions[mesh.faces[:, c]] for c in range(3))
        face_normals = np.cross(p1 - p0, p2 - p0)
        face_normals /= np.linalg.norm(face_normals, axis=1, keepdims=True)
        for v in range(mesh.n_vertices):
            star = ci.build_star(mesh, v)
            o = mesh.positions[v]
            for e in star.entries:
                assert abs(np.linalg.norm(e.normal) - 1.0) <= 1e-12, name
                assert abs(e.normal @ face_normals[e.face]) <= 1e-10, name
                mid = 0.5 * (mesh.positions[e.opposite[0]] + mesh.positions[e.opposite[1]])
                assert e.normal @ (mid - o) > 0.0, name
                assert e.area > 0.0


def test_star_coverage_of_closed_mesh():
    mesh = ci.make_icosphere(1, 1.0)
    hits = np.zeros(mesh.n_faces, dtype=int)
    for v in range(mesh.n_vertices):
        for e in ci.build_star(mesh, v).entries:
            hits[e.face] += 1
    assert np.all(hits == 3)


def test_isolated_vertex():
    m = ci.TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], [[0, 1, 2]])
    with pytest.raises(IsolatedVertexError):
        ci.build_star(m, 3)


def test_positions_are_immutable():
    g = ci.make_grid(2)
    with pytest.raises(ValueError):
        g.positions[0, 0] = 9.0


def test_with_positions_revalidates():
    g = ci.make_grid(2)
    squashed = np.asarray(g.positions).copy()
    squashed[:, :] = 0.0
    with pytest.raises(MeshValidationError):
        g.with_positions(squashed)


def test_interior_vertex_counts():
    g = ci.make_grid(8)
    assert len(interior_vertices(g)) == 7 * 7
    assert g.boundary_vertices().sum() == 4 * 8


# ---------------------------------------------------------------------------
# round trips and mutated files


COORDINATES = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200)
@given(st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES), max_size=8),
       st.sampled_from(["obj", "off"]), st.permutations(range(20)))
def test_round_trip_is_bit_exact(extra, fmt, order):
    # the extra vertices are in no face, so any finite value is a valid mesh
    base = ci.make_icosphere(0, 1.0)
    positions = np.vstack([base.positions, np.array(extra, dtype=float).reshape(-1, 3)])
    mesh = ci.TriMesh(positions, base.faces[list(order)])
    text = ci.mesh_to_text(mesh, fmt)
    assert text == reference_mesh_to_text(mesh, fmt)
    again = ci.load_mesh(text, fmt=fmt)
    assert again.positions.tobytes() == mesh.positions.tobytes()
    np.testing.assert_array_equal(again.faces, mesh.faces)
    assert_paths_agree(text=text, fmt=fmt)


VALID_TEXTS = [
    ("off", ci.mesh_to_text(ci.make_icosphere(0, 1.0), "off")),
    ("obj", ci.mesh_to_text(ci.make_icosphere(0, 1.0), "obj")),
    ("off", "OFF\n# square\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"),
    ("obj", "# square\nv 0 0 0\nv 1 0 0\nv 1 1 0\nvn 0 0 1\nv 0 1 0\nf 1/1 2/2 3/3 4/4\n"),
]
TOKENS = ["99999999999999999999999", "-99999999999999999999999", "1000000000000", "-1",
          "-7", "0", "3.5", "inf", "-inf", "nan", "1e999", "x", ""]


@st.composite
def mutated_texts(draw):
    fmt, text = draw(st.sampled_from(VALID_TEXTS))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "drop", "repeat", "count"]))
        if kind == "token" and lines[i].split():
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "count" and fmt == "off":
            counts = next(k for k, line in enumerate(lines)
                          if k and not line.startswith("#"))
            tokens = lines[counts].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(10 ** 12)
            lines[counts] = " ".join(tokens)
    return fmt, "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(mutated_texts())
def test_mutated_file_loads_or_raises_a_mesh_error(case):
    fmt, text = case
    assert_paths_agree(text=text, fmt=fmt)
    try:
        mesh = ci.load_mesh(text, fmt=fmt)
    except (ParseError, MeshValidationError):
        return
    assert isinstance(mesh, ci.TriMesh)
    assert np.isfinite(mesh.positions).all()


# ---------------------------------------------------------------------------
# the readers against the line loops they replaced


@contextmanager
def python_conversion_only():
    """load_mesh with every section converted record by record in Python."""
    with mock.patch.object(mesh_mod.np, "loadtxt", side_effect=ValueError("refused")):
        yield


def load_outcome(text, fmt):
    try:
        mesh = ci.load_mesh(text, fmt=fmt)
    except Exception as exc:
        return type(exc), str(exc)
    return mesh.positions.tobytes(), mesh.faces.tobytes()


def parse_outcome(parse, text):
    try:
        positions, faces, face_lines = parse(text, None)
    except Exception as exc:
        return type(exc), str(exc)
    return (positions.shape, positions.tobytes(), [[int(i) for i in f] for f in faces],
            list(face_lines))


def assert_paths_agree(*, text, fmt):
    """The parser gives the reference line loop's result: equal
    positions, faces and face lines, or the same error and message; and
    load_mesh gives the same with and without the numpy pass."""
    assert fmt in ("obj", "off")
    parse, loop = ((mesh_mod._parse_obj, reference_parse_obj) if fmt == "obj"
                   else (mesh_mod._parse_off, reference_parse_off))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (parse_outcome(parse, text)
                == parse_outcome(lambda t, path: loop(t.splitlines(), path), text))
        got = load_outcome(text, fmt)
        with python_conversion_only():
            assert got == load_outcome(text, fmt)


INLINE_TEXTS = [
    ("off", MINIMAL_OFF),
    ("off", "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n"),
    ("obj", "f 1 2 3\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"),
    # a face line whose count is not 3, and a face before integral vertices
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n"),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1 2\n"),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n+3 +0 1 0002\n"),
    ("obj", "f 1 2 3\nv 1 2 3\nv 4 5 6\nv 7 8 10\n"),
    ("obj", "v 0 0 0\nvn 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"),
    # no faces, or no vertices
    ("off", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"),
    ("off", "OFF\n0 1 0\n3 0 1 2\n\n\n"),
    ("obj", "v 0 0 0\nv 1 0 0\n"),
    ("obj", "f 1 2 3\n"),
]
AGREEMENT_CASES = ([(f[1], f[2]) for f in MALFORMED_FIXTURES + NON_FINITE_FIXTURES
                    + FACE_ERROR_FIXTURES]
                   + [("off", text) for text, _ in OVERSIZED_COUNTS] + INLINE_TEXTS + VALID_TEXTS)


# OFF texts that end before their counts: (format, text, line, message)
OFF_WITHOUT_COUNTS = [
    ("off", "\n", 1, "empty file, expected OFF header"),
    ("off", "# a comment\n\n", 1, "empty file, expected OFF header"),
    ("off", "OFF\n", 2, "unexpected end of file, expected counts"),
    ("off", "OFF\n# counts to follow\n", 3, "unexpected end of file, expected counts"),
]


@pytest.mark.parametrize("fmt,text,line,message", [
    *OFF_WITHOUT_COUNTS,
    # OBJ: the earliest faulty record of either kind, then a non-finite vertex
    ("obj", "v 0 0 0\nf 1 2\nv 1 0\n", 2, "face record needs at least 3 vertices"),
    ("obj", "v 0 0 inf\nf 1 2 x\nv 0 1\n", 2, "face index 'x' is not an integer"),
    # OFF: a faulty vertex line, a missing one, a non-finite vertex, then the faces
    ("off", "OFF\n3 1 0\nnan 0 0\n1 0\n0 1 0\n3 0 1\n", 4, "vertex line must have 3 coordinates"),
    ("off", "OFF\n3 1 0\nnan 0 0\n1 0 0\n", 5, "unexpected end of file, expected vertex 2"),
    ("off", "OFF\n3 2 0\nnan 0 0\n1 0 0\n0 1 0\n3 0 1\n", 3,
     "vertex 0 has a non-finite coordinate"),
    ("off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n", 6, "polygon needs at least 3 vertices"),
])
def test_errors_win_in_a_fixed_order(fmt, text, line, message):
    with pytest.raises(ParseError) as err:
        ci.load_mesh(text, fmt=fmt)
    assert str(err.value) == f"line {line}: {message}"
    assert_paths_agree(text=text, fmt=fmt)


@pytest.mark.parametrize("fmt,text", AGREEMENT_CASES)
def test_block_and_line_loop_agree_on_fixtures(fmt, text):
    assert_paths_agree(text=text, fmt=fmt)


# tokens on which numpy's loadtxt must never be looser than float()/int()
NUMBER_FORMS = ["3", "+3", "-3", ".5", "-0.0", "1e-400", "1e400", "nan", "inf", "-Infinity",
                "3.0", "1e3", "0x10", "1d5", "1,5", "1_0", "\u0663", "\u0661.\u0665",
                "0003", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
                "1\x00", "1\u200b", "\xa01", "1\u2002"]


@pytest.mark.parametrize("token", NUMBER_FORMS)
def test_block_never_accepts_what_python_refuses(token):
    def python_row(record):
        raise ValueError("converted in Python")

    for dtype, convert in [(float, float), (np.int64, int)]:
        block, _, fault = mesh_mod.convert_rows([f"{token} 1 1"], range(1, 2), python_row,
                                                dtype, 3)
        if fault is not None:  # numpy refused it
            continue
        expected = convert(token)
        assert block.shape == (1, 3)
        assert np.array([expected], dtype=dtype).tobytes() == block[0, :1].tobytes()


def test_block_refuses_what_numpy_reads_with_a_deprecation_warning(monkeypatch):
    # numpy 1.23 to 1.26 read the int64 token "3.0" as 3 and only warn
    def warning_loadtxt(records, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.ones((len(records), 3), np.int64)

    monkeypatch.setattr(mesh_mod.np, "loadtxt", warning_loadtxt)
    rows, _, fault = mesh_mod.convert_rows(["3.0 1 1"], range(1, 2), mesh_mod._obj_face,
                                           np.int64, 3)
    assert fault == ("face index '3.0' is not an integer", 1)


def test_regular_bodies_skip_the_line_loop(monkeypatch, tmp_path):
    # a regular body is converted by numpy alone: no per-record conversion call
    def refuse(record):
        raise AssertionError("a record was converted in Python")

    for name in ("_off_vertex", "_off_face", "_obj_vertex", "_obj_face"):
        monkeypatch.setattr(mesh_mod, name, refuse)
    for name, mesh in [("ico3.off", jiggled_icosphere(3, 3)),
                       ("cat.obj", ci.make_catenoid(1.0, 19, 32))]:
        ci.save_mesh(mesh, tmp_path / name)
        assert_same_mesh(ci.load_mesh(tmp_path / name), mesh)


EXTREMES = [-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]


@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_writer_is_the_reference_writer(fmt):
    base = ci.make_icosphere(0, 1.0)
    extremes = ci.TriMesh(np.vstack([base.positions, np.reshape(EXTREMES, (-1, 3))]), base.faces)
    for name, mesh in STOCK + [("extremes", extremes)]:
        assert ci.mesh_to_text(mesh, fmt) == reference_mesh_to_text(mesh, fmt), name


@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_writer_is_the_reference_writer_at_every_scale(fmt):
    # one file with "e-05" and "e+17" cells, values near 1e5, exact zeros,
    # and the coordinates of 2**52 and up that Python formats
    faces = ci.make_icosphere(2, 1.0).faces
    parts = [jiggled_icosphere(2, 11).positions * 1e-5, jiggled_icosphere(2, 12).positions * 1e18,
             jiggled_icosphere(2, 13).positions + 1e5, ci.make_icosphere(2, 1.0).positions]
    mesh = ci.TriMesh(np.vstack(parts), np.vstack([faces + k * len(parts[0]) for k in range(4)]))
    text = ci.mesh_to_text(mesh, fmt)
    assert text == reference_mesh_to_text(mesh, fmt)
    cells = set(text.split())
    assert {"0", "-0"} & cells
    assert any(c.endswith("e-05") for c in cells) and any(c.endswith("e+17") for c in cells)
    assert any(c.startswith("10000") and "." in c for c in cells)


def test_obj_suffixed_faces_load_as_the_plain_faces():
    mesh = jiggled_icosphere(5, 2)
    plain = ci.mesh_to_text(mesh, "obj")
    for suffix in ("/1", "/1/1", "//7", "/"):
        assert_same_mesh(ci.load_mesh(suffixed(plain, suffix), fmt="obj"), mesh)


OBJ_FACE_ERRORS = [(f[0], f[2]) for f in FACE_ERROR_FIXTURES if f[1] == "obj"]


@pytest.mark.parametrize("label,text", OBJ_FACE_ERRORS, ids=[f[0] for f in OBJ_FACE_ERRORS])
def test_obj_face_errors_keep_their_suffixes(label, text):
    for suffix in ("/1", "/2/3", "//4"):
        assert load_outcome(suffixed(text, suffix), "obj") == load_outcome(text, "obj"), label
        assert_paths_agree(text=suffixed(text, suffix), fmt="obj")


@pytest.mark.parametrize("tokens,message", [
    ("/2", "face index '/2' is not an integer"),
    ("3/3 /2", "face index '/2' is not an integer"),  # no suffix without its index
    ("1.5/2", "face index '1.5/2' is not an integer"),
    ("x/1", "face index 'x/1' is not an integer"),
    ("-1/2", "face indices must be positive (1-based)"),
    ("0/1", "face indices must be positive (1-based)"),
])
def test_obj_suffixed_face_errors_name_the_record(tokens, message):
    text = f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\nf 1/1 2/2 {tokens}\n"
    assert load_outcome(text, "obj") == (ParseError, f"line 5: {message}")
    assert_paths_agree(text=text, fmt="obj")


def test_obj_suffixed_faces_after_a_refused_record_keep_the_line_loop():
    # numpy refuses the block after its suffixes are cut: each record is read
    # as written, so a fault names its token with the suffix, and polygons fan
    head = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1/1 2/2 3/3\n"
    assert load_outcome(head + "f 1/1 x/2 3/3\n", "obj") == (
        ParseError, "line 6: face index 'x/2' is not an integer")
    assert load_outcome(head + "f 0/1 2/2 3/3\n", "obj") == (
        ParseError, "line 6: face indices must be positive (1-based)")
    quad = ci.load_mesh(head + "f 1/1/1 2/2/2 4/4/4 3/3/3\n", fmt="obj")
    np.testing.assert_array_equal(quad.faces, [[0, 1, 2], [0, 1, 3], [0, 3, 2]])


PERTURBED_TOKENS = ["1_0", "\u0663", "+3", "3.0", "nan", "1e400", str(2 ** 63), "-1", "0"]


@st.composite
def perturbed_bodies(draw):
    """A regular OFF or OBJ body with one token or line perturbed."""
    fmt = draw(st.sampled_from(["obj", "off"]))
    mesh = draw(st.sampled_from([ci.make_icosphere(0, 1.0), ci.make_grid(1)]))
    lines = ci.mesh_to_text(mesh, fmt).splitlines()
    first = 2 if fmt == "off" else 0
    i = draw(st.integers(first, len(lines) - 1))
    tokens = lines[i].split(" ")
    vertex = i < first + mesh.n_vertices
    kind = draw(st.sampled_from(["token", "tab", "trailing space", "crlf", "form feed", "blank",
                                 "comment", "short", "long", "quad", "face first"]))
    if kind == "token":
        tokens[draw(st.integers(1 if fmt == "obj" else 0, len(tokens) - 1))] = \
            draw(st.sampled_from(PERTURBED_TOKENS))
        lines[i] = " ".join(tokens)
    elif kind == "tab":
        lines[i] = lines[i].replace(" ", "\t", 1)
    elif kind == "trailing space":
        lines[i] += " "
    elif kind == "crlf":
        return fmt, "\r\n".join(lines) + "\r\n"
    elif kind == "form feed":
        lines[i] = lines[i].replace(" ", draw(st.sampled_from([" \x0c", "\x0c"])), 1)
    elif kind == "blank":
        lines.insert(i, "")
    elif kind == "comment":
        lines[i] += " # c"
    elif kind == "short" and vertex:
        lines[i] = " ".join(tokens[:-1])
    elif kind == "long" and vertex:
        lines[i] += " 1"
    elif kind == "quad" and not vertex:
        base = int(fmt == "obj")
        extra = next(str(k) for k in range(base, base + mesh.n_vertices) if str(k) not in tokens)
        lines[i] = ("f " if fmt == "obj" else "4 ") + " ".join(tokens[1:] + [extra])
    elif kind == "face first" and fmt == "obj" and not vertex:
        lines.insert(0, lines.pop(i))
    return fmt, "\n".join(lines) + "\n"


@settings(max_examples=400)
@given(perturbed_bodies())
def test_block_and_line_loop_agree_on_perturbed_bodies(case):
    fmt, text = case
    assert_paths_agree(text=text, fmt=fmt)
