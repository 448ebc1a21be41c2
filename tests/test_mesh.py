import io
import math

import numpy as np
import pytest

import curvint as ci
from curvint import IsolatedVertexError, MeshValidationError, ParseError

from conftest import (FACE_ERROR_FIXTURES, MALFORMED_FIXTURES, bundled_meshes,
                      interior_vertices, perturbed_meshes)


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


def test_format_inference():
    with pytest.raises(ValueError):
        ci.load_mesh(MINIMAL_OFF)  # no extension, no fmt
    with pytest.raises(ValueError):
        ci.mesh_to_text(ci.make_grid(1), "ply")


@pytest.mark.parametrize("label,fmt,text,line", MALFORMED_FIXTURES,
                         ids=[f[0] for f in MALFORMED_FIXTURES])
def test_malformed_inputs_report_line(label, fmt, text, line):
    with pytest.raises(ParseError) as err:
        ci.load_mesh(io.StringIO(text), fmt=fmt)
    assert err.value.line == line


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
    assert err.value.face == 0
    # explicitly permitted
    m = ci.TriMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]], allow_degenerate=True)
    assert m.n_faces == 1
    with pytest.raises(MeshValidationError):
        ci.TriMesh([[0, 0, float("nan")]], np.zeros((0, 3), dtype=int))


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


def test_primitive_parameter_validation():
    with pytest.raises(ValueError):
        ci.make_grid(0)
    with pytest.raises(ValueError):
        ci.make_icosphere(7, 1.0)
    with pytest.raises(ValueError):
        ci.make_tube(1.0, 2.0, 1, 2)
    with pytest.raises(ValueError):
        ci.make_primitive("moebius")


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
        p0, p1, p2 = mesh.corners()
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
