import argparse
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvint as ci
from curvint import cli, discrete
from curvint.cli import run

from conftest import (FACE_ERROR_FIXTURES, MALFORMED_FIXTURES, NON_FINITE_FIXTURES, STOCK,
                      isolated_and_boundary, jiggled_icosphere, reference_curvature_csv,
                      reference_flow_csv, reference_gradcheck_csv, reference_laplacian_csv,
                      reference_limit_csv, reference_make_catenoid, reference_make_grid,
                      reference_make_tube, reference_read_field, reference_verify_csv)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_verify_cap_passes(tmp_path):
    out = tmp_path / "verify.csv"
    rc = run(["verify", "--surface", "sphere", "--R", "1", "--region", "cap",
              "--theta0", "1.0471975511965976", "--quad-n", "16",
              "--output", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["surface", "region", "lhs_x", "lhs_y", "lhs_z",
                      "rhs_x", "rhs_y", "rhs_z", "abs_err", "rel_err", "area"]
    row = rows[0]
    assert row[0] == "sphere"
    assert float(row[9]) <= 1e-8  # rel_err
    assert abs(float(row[4]) + 1.5 * math.pi) <= 1e-7  # lhs_z


def test_verify_under_resolved_exits_2(tmp_path):
    rc = run(["verify", "--surface", "sphere", "--R", "1", "--region", "cap",
              "--theta0", "1.0471975511965976", "--quad-n", "2",
              "--quad-panels", "1", "--max-rel-err", "1e-12",
              "--output", str(tmp_path / "v.csv")])
    assert rc == 2


def test_verify_rect_and_disk_regions(tmp_path):
    rc = run(["verify", "--surface", "torus", "--R", "2", "--r", "0.5",
              "--region", "rect", "--u0", "0.3", "--u1", "1.1",
              "--v0", "0.2", "--v1", "0.9", "--max-rel-err", "1e-8",
              "--output", str(tmp_path / "t.csv")])
    assert rc == 0
    rc = run(["verify", "--surface", "saddle", "--region", "disk",
              "--uc", "0.2", "--vc", "-0.3", "--rho", "0.4",
              "--max-rel-err", "1e-8", "--output", str(tmp_path / "s.csv")])
    assert rc == 0


@pytest.mark.parametrize("args,message", [
    (["--surface", "sphere", "--R", "1", "--region", "rect"],
     "rect region needs --u0 --u1 --v0 --v1"),
    (["--surface", "sphere", "--region", "disk", "--uc", "1", "--rho", "0.1"],
     "disk region needs --uc --vc --rho"),
    (["--surface", "sphere", "--region", "cap"], "cap region needs --theta0"),
    (["--surface", "torus", "--region", "cap", "--theta0", "1.0"],
     "cap regions are defined on the sphere only"),
    # the cap starts at the pole margin, 1e-6: a colatitude at or below it
    # is refused by name, not as a rectangle without extent
    *((["--surface=sphere", "--region=cap", f"--theta0={theta0}"],
       f"cap colatitude must exceed 1e-06, got {float(theta0)}")
      for theta0 in ("1e-7", "1e-6", "0", "-1")),
    # a flag that the region does not take is refused before the others
    (["--surface", "plane", "--region", "rect", "--u0", "0", "--u1", "1", "--v0", "0",
      "--v1", "1", "--rho", "0.3"], "region 'rect' takes no rho"),
    (["--surface", "plane", "--region", "rect", "--theta0", "1"], "region 'rect' takes no theta0"),
    (["--surface", "sphere", "--region", "disk", "--uc", "1", "--vc", "1", "--rho", "0.2",
      "--v0", "0"], "region 'disk' takes no v0"),
    (["--surface", "torus", "--region", "cap", "--theta0", "inf", "--uc", "1"],
     "region 'cap' takes no uc"),
])
def test_verify_missing_region_params_exits_1(args, message, capsys):
    rc = run(["verify", *args])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args,name", [
    (["verify", "--surface", "sphere", "--r", "2", "--region", "disk", "--uc", "1", "--vc", "1",
      "--rho", "0.2"], "r"),
    (["verify", "--surface", "sphere", "--R", "inf", "--r", "2", "--region", "rect"], "r"),
    (["verify", "--surface", "plane", "--R", "2", "--region", "rect", "--u0", "0", "--u1", "1",
      "--v0", "0", "--v1", "1"], "R"),
    (["limit", "--surface", "sphere", "--r", "2", "--center", "1,1"], "r"),
    (["limit", "--surface", "torus", "--c", "-1", "--r", "inf", "--center", "1,1"], "c"),
])
def test_a_parameter_the_surface_does_not_take_exits_1(args, name, capsys):
    # named before any value, region or center is checked
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: surface '{args[2]}' takes no {name}\n"


def test_limit_csv_schema(tmp_path):
    out = tmp_path / "limit.csv"
    rc = run(["limit", "--surface", "sphere", "--R", "1",
              "--center", f"{math.pi / 3},{math.pi / 4}",
              "--radii", "0.2,0.1,0.05", "--output", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["radius", "est_x", "est_y", "est_z", "err", "observed_order"]
    assert [row[5] for row in rows[:-1]] == [""] * (len(rows) - 1)
    assert float(rows[-1][5]) >= 1.0
    errs = [float(row[4]) for row in rows]
    assert errs == sorted(errs, reverse=True)


@pytest.mark.parametrize("args,name", [
    (["--kind", "grid", "--level", "4"], "level"), (["--kind", "grid", "--R", "3"], "R"),
    (["--kind", "icosphere", "--n", "5"], "n"), (["--kind", "tube", "--c", "1"], "c"),
])
def test_make_refuses_a_flag_its_kind_does_not_take(args, name, tmp_path, capsys):
    out = tmp_path / "mesh.off"
    assert run(["make", *args, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: primitive '{args[1]}' takes no {name}\n"
    assert not out.exists()


def test_make_and_curvature_roundtrip(tmp_path):
    mesh_path = tmp_path / "ico.off"
    assert run(["make", "--kind", "icosphere", "--level", "2", "--R", "1",
                "--output", str(mesh_path)]) == 0
    mesh = ci.load_mesh(mesh_path)
    assert (mesh.n_vertices, mesh.n_faces) == (162, 320)

    curv_path = tmp_path / "curv.csv"
    assert run(["curvature", "--input", str(mesh_path),
                "--output", str(curv_path)]) == 0
    header, rows = read_rows(curv_path)
    assert header == ["vertex", "Bx", "By", "Bz", "magnitude", "near_minimal", "boundary"]
    assert len(rows) == 162
    assert all(row[6] == "0" for row in rows)


@pytest.mark.parametrize("fmt", ["obj", "off"])
@pytest.mark.parametrize("args,reference", [
    (["--kind", "grid", "--n", "7"], lambda: reference_make_grid(7)),
    (["--kind", "tube", "--R", "0.5", "--L", "3", "--n-u", "5", "--n-v", "9"],
     lambda: reference_make_tube(0.5, 3.0, 5, 9)),
    (["--kind", "catenoid", "--c", "2.5", "--n-u", "19", "--n-v", "32"],
     lambda: reference_make_catenoid(2.5, 19, 32)),
], ids=["grid", "tube", "catenoid"])
def test_make_writes_the_reference_primitive(args, reference, fmt, tmp_path):
    out = tmp_path / f"mesh.{fmt}"
    assert run(["make", *args, "--output", str(out)]) == 0
    assert out.read_text() == ci.mesh_to_text(reference(), fmt)


@pytest.mark.parametrize("args,message", [
    (["--kind", "tube", "--R", "nan"], "radius must be finite, got nan"),
    (["--kind", "tube", "--L", "inf"], "length must be finite, got inf"),
    (["--kind", "catenoid", "--c=-inf"], "waist must be finite, got -inf"),
    (["--kind", "icosphere", "--R", "nan"], "radius must be finite, got nan"),
])
def test_make_refuses_non_finite_parameters(args, message, tmp_path, capsys):
    out = tmp_path / "mesh.off"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["make", *args, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_curvature_marks_boundary_rows(tmp_path):
    mesh_path = tmp_path / "grid.obj"
    assert run(["make", "--kind", "grid", "--n", "4", "--output", str(mesh_path)]) == 0
    out = tmp_path / "curv.csv"
    assert run(["curvature", "--input", str(mesh_path), "--output", str(out)]) == 0
    _, rows = read_rows(out)
    boundary_rows = [row for row in rows if row[6] == "1"]
    assert len(boundary_rows) == 16
    assert all(row[1] == "" for row in boundary_rows)
    inner = [row for row in rows if row[6] == "0"]
    assert all(row[5] == "1" for row in inner)  # flat: near-minimal everywhere


def test_curvature_at_zero_tolerance_flags_exactly_zero_b(tmp_path):
    # a flat grid's B is exactly zero: near-minimal at any tolerance
    mesh_path = tmp_path / "grid.obj"
    assert run(["make", "--kind", "grid", "--n", "4", "--output", str(mesh_path)]) == 0
    out = tmp_path / "curv.csv"
    assert run(["curvature", "--tol-direction", "0", "--input", str(mesh_path),
                "--output", str(out)]) == 0
    _, rows = read_rows(out)
    inner = [row for row in rows if row[6] == "0"]
    assert len(inner) == 9
    assert all(row[4] == "0" and row[5] == "1" for row in inner)


def test_gradcheck_gate(tmp_path):
    mesh_path = tmp_path / "m.off"
    assert run(["make", "--kind", "icosphere", "--level", "1",
                "--output", str(mesh_path)]) == 0
    out = tmp_path / "g.csv"
    assert run(["gradcheck", "--input", str(mesh_path), "--max-rel-err", "1e-6",
                "--output", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["vertex", "analytic_x", "analytic_y", "analytic_z",
                      "fd_x", "fd_y", "fd_z", "rel_err"]
    assert len(rows) == 42
    # the oracle's round-off (a worst rel_err of 3.1e-16 here) trips a bound of 0
    assert run(["gradcheck", "--input", str(mesh_path), "--max-rel-err", "0",
                "--output", str(tmp_path / "g2.csv")]) == 2


def test_gradcheck_area_critical_vertices(tmp_path, monkeypatch):
    # on a flat grid every interior gradient is zero: analytic and FD are
    # both roundoff there, which must not count as a relative error of 1
    mesh_path = tmp_path / "grid.off"
    assert run(["make", "--kind", "grid", "--n", "6", "--output", str(mesh_path)]) == 0
    args = ["gradcheck", "--input", str(mesh_path), "--max-rel-err", "1e-6",
            "--output", str(tmp_path / "g.csv")]
    assert run(args) == 0
    # a wrong gradient at exactly those vertices still trips the gate; the
    # gate is symmetric in its two columns, so the error goes into the oracle's
    exact = discrete.complex_step_area_gradient

    def wrong(mesh):
        return exact(mesh) + np.where(mesh.boundary_vertices(), 0.0, 1e-7)[:, None]

    monkeypatch.setattr(discrete, "complex_step_area_gradient", wrong)
    assert run(args) == 2


@pytest.mark.parametrize("mesh", [jiggled_icosphere(2, 2), ci.make_catenoid(1.0, 4, 12)],
                         ids=["jiggled_ico2", "catenoid"])
def test_gradcheck_csv_matches_reference_oracle(mesh, tmp_path):
    mesh_path = tmp_path / "m.off"
    ci.save_mesh(mesh, mesh_path)
    out = tmp_path / "grad.csv"
    assert run(["gradcheck", "--input", str(mesh_path), "--output", str(out)]) == 0
    loaded = ci.load_mesh(mesh_path)
    assert out.read_text() == reference_gradcheck_csv(
        loaded, ci.complex_step_area_gradient(loaded))


def jiggled_catenoid(seed: int) -> ci.TriMesh:
    base = ci.make_catenoid(1.0, 6, 16)
    rng = np.random.default_rng(seed)
    return base.with_positions(base.positions + 0.02 * rng.standard_normal(base.positions.shape))


# STOCK holds the 8x8 grid (near-minimal rows), the tube (boundary rows)
# and a jiggled ico3
WRITER_MESHES = STOCK + [("jiggled_catenoid", jiggled_catenoid(4))]


@pytest.mark.parametrize("name,mesh", WRITER_MESHES, ids=[m[0] for m in WRITER_MESHES])
def test_mesh_tables_match_the_reference_writers(name, mesh, tmp_path):
    mesh_path = tmp_path / "m.off"
    ci.save_mesh(mesh, mesh_path)
    mesh = ci.load_mesh(mesh_path)
    values = mesh.positions[:, 2] ** 2 + np.random.default_rng(7).standard_normal(mesh.n_vertices)
    field_path = tmp_path / "field.csv"
    field_path.write_text("".join(f"{v},{float(x)!r}\n" for v, x in enumerate(values)))
    cases = [(["curvature"], reference_curvature_csv(mesh)),
             (["curvature", "--tol-direction", "0.5"], reference_curvature_csv(mesh, 0.5)),
             (["gradcheck"], reference_gradcheck_csv(mesh, ci.complex_step_area_gradient(mesh))),
             (["laplacian", "--field", str(field_path)], reference_laplacian_csv(mesh, values))]
    if mesh.is_closed():
        cases.append((["flow", "--dt", "1e-3", "--steps", "3"],
                      reference_flow_csv(ci.run_flow(mesh, 1e-3, 3)[0])))
    out = tmp_path / "out.csv"
    for args, expected in cases:
        assert run([*args, "--input", str(mesh_path), "--output", str(out)]) == 0, args
        assert out.read_text() == expected, args


def test_mesh_tables_with_zero_blank_and_exponential_cells(tmp_path):
    # the flat grid's interior B is exactly zero and its boundary rows are
    # blank; on a catenoid at 1e-5 scale the gradients print as "e-06"
    small = jiggled_catenoid(5)
    small = small.with_positions(small.positions * 1e-5)
    out, field_path = tmp_path / "out.csv", tmp_path / "field.csv"
    for mesh in (ci.make_grid(6), small):
        mesh_path = tmp_path / "m.obj"
        ci.save_mesh(mesh, mesh_path)
        mesh = ci.load_mesh(mesh_path)
        values = np.random.default_rng(2).standard_normal(mesh.n_vertices)
        field_path.write_text("".join(f"{v},{float(x)!r}\n" for v, x in enumerate(values)))
        cases = [(["curvature"], reference_curvature_csv(mesh)),
                 (["gradcheck"], reference_gradcheck_csv(mesh, ci.complex_step_area_gradient(mesh))),
                 (["laplacian", "--field", str(field_path)], reference_laplacian_csv(mesh, values))]
        for args, expected in cases:
            assert run([*args, "--input", str(mesh_path), "--output", str(out)]) == 0, args
            assert out.read_text() == expected, args
    grid_rows = reference_curvature_csv(ci.make_grid(6)).splitlines()
    assert any(row.endswith(",,,,,,1") for row in grid_rows)
    assert any(row.endswith(",0,0,0,0,1,0") for row in grid_rows)
    assert "e-06," in reference_gradcheck_csv(small, ci.complex_step_area_gradient(small))


@pytest.mark.parametrize("level,dt,steps,rows", [
    (2, "10", 5, None),  # stops early
    (0, "1e-6", 5000, 5001),  # more rows than one block of the table writer holds
    (1, "1e-3", 0, 1),  # the initial state only
])
def test_flow_stopping_early_matches_the_reference_writer(level, dt, steps, rows, tmp_path,
                                                          capsys):
    mesh_path = tmp_path / "ico.off"
    ci.save_mesh(ci.make_icosphere(level, 1.0), mesh_path)
    trace, _ = ci.run_flow(ci.load_mesh(mesh_path), float(dt), steps)
    assert (trace.stop_reason is None) == (rows is not None)
    assert run(["flow", "--input", str(mesh_path), "--dt", dt, "--steps", str(steps)]) == 0
    captured = capsys.readouterr()
    assert captured.out == reference_flow_csv(trace)
    if rows is None:
        assert captured.err == f"stopped early: {trace.stop_reason}\n"
    else:
        assert (captured.err, len(trace.steps)) == ("", rows)


@pytest.mark.parametrize("surface,center,radii", [
    ("plane", (0.1, 0.2), None),  # every error is zero: a nan observed order
    ("sphere", (math.pi / 3, math.pi / 4), None),
    ("torus", (1.0, 1.0), None),
    ("catenoid", (0.1, -0.4), None),
    ("cylinder", (0.4, 1.0), None),
    ("torus", (1.0, 1.0), [0.3, 0.01]),  # the fewest radii: one blank order cell
])
def test_limit_table_matches_the_reference_writer(surface, center, radii, capsys):
    args = ["--radii", ",".join(map(repr, radii))] if radii else []
    study = ci.shrinking_limit(ci.surface_from_name(surface), center,
                               radii or [0.2, 0.1, 0.05, 0.025])
    assert run(["limit", "--surface", surface, "--center", f"{center[0]!r},{center[1]!r}",
                *args]) == 0
    assert capsys.readouterr().out == reference_limit_csv(study)


@pytest.mark.parametrize("surface,args,region", [
    ("sphere", ["--region", "cap", "--theta0", "1.0"], ci.RectRegion(1e-6, 1.0, 0.0, 2 * math.pi)),
    ("torus", ["--region", "rect", "--u0", "0.3", "--u1", "1.1", "--v0", "0.2", "--v1", "0.9"],
     ci.RectRegion(0.3, 1.1, 0.2, 0.9)),
    ("saddle", ["--region", "disk", "--uc", "0.2", "--vc", "-0.3", "--rho", "0.4"],
     ci.DiskRegion(0.2, -0.3, 0.4)),
    ("plane", ["--region", "rect", "--u0", "0", "--u1", "1", "--v0", "0", "--v1", "1"],
     ci.RectRegion(0.0, 1.0, 0.0, 1.0)),
    ("enneper", ["--region", "disk", "--uc", "0.1", "--vc", "-0.2", "--rho", "0.5"],
     ci.DiskRegion(0.1, -0.2, 0.5)),
])
def test_verify_table_matches_the_reference_writer(surface, args, region, capsys):
    s = ci.surface_from_name(surface)
    report = ci.verify_identity(s, region, ci.gauss_legendre(16, panels=8))
    assert run(["verify", "--surface", surface, *args]) == 0
    assert capsys.readouterr().out == reference_verify_csv(s, region, report)


def test_nan_disk_radius_is_refused_as_not_finite(capsys):
    # every finite point is inside a torus: the radius itself is at fault
    rc = run(["verify", "--surface", "torus", "--region", "disk", "--uc", "1", "--vc", "1",
              "--rho", "nan"])
    assert rc == 1
    assert capsys.readouterr().err == "error: disk radius must be finite, got nan\n"


@pytest.mark.parametrize("argv,message", [
    *(pytest.param(["verify", "--surface", "torus", "--region", "disk", f"--uc={uc}",
                    f"--vc={vc}", "--rho", "0.3"], message, id=f"{uc}-{vc}")
      for uc, vc, message in [("nan", "1", "uc must be finite, got nan"),
                              ("1", "inf", "vc must be finite, got inf"),
                              ("-inf", "nan", "uc must be finite, got -inf")]),
    *(pytest.param(["limit", "--surface", surface, "--center", center], message,
                   id=f"limit-{surface}-{center}")
      for surface, center, message in [("torus", "inf,1", "uc must be finite, got inf"),
                                       ("plane", "nan,0", "uc must be finite, got nan")]),
])
def test_non_finite_disk_center_is_refused_by_name(argv, message, capsys):
    # every finite point is inside a torus or a plane: the center itself is at fault
    rc = run(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: disk center {message}\n"


@pytest.mark.parametrize("flags,message", [
    (["--center", "a,1"], "--center: could not convert string to float: 'a'"),
    (["--center", "1,1", "--radii", "0.2,x"], "--radii: could not convert string to float: 'x'"),
    (["--center", "1,1", "--radii", "0.2,,0.1"],
     "--radii: could not convert string to float: ''"),
    (["--center", "1"], "center must be two numbers (u, v), got [1.0]"),
    (["--center", "1,1,5"], "center must be two numbers (u, v), got [1.0, 1.0, 5.0]"),
])
def test_limit_number_that_does_not_parse_names_its_flag(flags, message, capsys):
    assert run(["limit", "--surface", "torus", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args,message", [
    (["verify", "--surface", "plane", "--region", "disk", "--uc", "0", "--vc", "0", "--rho", "inf"],
     "disk radius must be finite, got inf"),
    (["limit", "--surface", "torus", "--center", "1,1", "--radii", "inf,0.1"],
     "disk radius must be finite, got inf"),
    (["verify", "--surface", "sphere", "--region", "cap", "--theta0", "inf"],
     "cap colatitude must be finite, got inf"),
    (["verify", "--surface", "sphere", "--region", "cap", "--theta0=-inf"],
     "cap colatitude must be finite, got -inf"),
    (["verify", "--surface", "sphere", "--region", "cap", "--theta0", "nan"],
     "cap colatitude must be finite, got nan"),
])
def test_non_finite_region_size_is_refused_by_name(args, message, capsys):
    # not "region not inside the domain", "disk wider than one period" or
    # a rectangle corner that is not finite: the size itself is at fault
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("surface,corner", [("plane", "--u0=-inf"), ("plane", "--v1=nan"),
                                            ("torus", "--u1=inf")])
def test_non_finite_rect_corner_is_refused_by_name(surface, corner, capsys):
    # every finite point is inside a plane or a torus: the corner itself is at fault
    flags = {"--u0": "0", "--u1": "1", "--v0": "0", "--v1": "1"}
    flag, value = corner.split("=")
    flags[flag] = value
    rc = run(["verify", "--surface", surface, "--region", "rect",
              *(f"{k}={v}" for k, v in flags.items())])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: rectangle corner {flag[2:]} must be finite, got {float(value)}\n")


def test_mesh_subcommands_call_no_per_vertex_function(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-vertex function was called")

    for name in ("vector_mean_curvature", "star_sum", "area_gradient", "laplacian",
                 "curvature_field"):
        monkeypatch.setattr(discrete, name, refuse)
    monkeypatch.setattr(ci.mesh, "build_star", refuse)
    grid_path, ico_path = tmp_path / "grid.off", tmp_path / "ico.off"
    ci.save_mesh(ci.make_grid(6), grid_path)
    ci.save_mesh(jiggled_icosphere(2, 2), ico_path)
    field_path = tmp_path / "field.csv"
    field_path.write_text("".join(f"{v},{v % 5}\n" for v in range(162)))
    out = tmp_path / "out.csv"
    for mesh_path in (grid_path, ico_path):
        for args in (["curvature"], ["gradcheck"]):
            assert run([*args, "--input", str(mesh_path), "--output", str(out)]) == 0
    assert run(["laplacian", "--input", str(ico_path), "--field", str(field_path),
                "--output", str(out)]) == 0
    assert run(["flow", "--input", str(ico_path), "--dt", "1e-3", "--steps", "2",
                "--output", str(out)]) == 0


@pytest.mark.parametrize("command", ["verify", "gradcheck"])
@pytest.mark.parametrize("bound", ["nan", "-1", "-inf", "inf"])
def test_bad_max_rel_err_exits_1(command, bound, tmp_path, capsys):
    mesh_path = tmp_path / "ico1.off"
    ci.save_mesh(ci.make_icosphere(1, 1.0), mesh_path)
    args = {"verify": ["--surface", "sphere", "--region", "cap", "--theta0", "1.0"],
            "gradcheck": ["--input", str(mesh_path)]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, *args, f"--max-rel-err={bound}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    rule = "nonnegative" if math.isfinite(float(bound)) else "finite"
    assert captured.err == f"error: --max-rel-err must be {rule}, got {float(bound)}\n"


@pytest.mark.parametrize("args,message", [
    (["flow", "--dt", "nan", "--steps", "2"], "time step dt must be finite, got nan"),
    (["flow", "--dt", "inf", "--steps", "2"], "time step dt must be finite, got inf"),
    (["curvature", "--tol-direction", "nan"], "tol_direction must be finite, got nan"),
    (["curvature", "--tol-direction=-1"], "tol_direction must be nonnegative, got -1.0"),
    (["flow", "--dt", "1e-3", "--steps=-1"], "step count n_steps must be an integer >= 0, got -1"),
    (["curvature", "--tol-direction", "inf"], "tol_direction must be finite, got inf"),
])
def test_bad_numeric_parameter_exits_1_naming_it(args, message, tmp_path, capsys):
    mesh_path = tmp_path / "ico1.off"
    ci.save_mesh(ci.make_icosphere(1, 1.0), mesh_path)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*args, "--input", str(mesh_path)]) == 1
        assert run([*args, "--input", str(mesh_path), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n" * 2
    # flow refuses its arguments before it opens --output
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["verify", "--region", "rect", "--u0", "0.3", "--u1", "1.1", "--v0", "0.2", "--v1", "0.9"],
     "contour integral is not finite"),
    (["limit", "--center", "1.0,0.5"], "N * H at the center is not finite"),
    (["limit", "--center", "0.1,0.5"], "contour integral is not finite"),
])
def test_overflowing_surface_exits_1_naming_the_quantity(args, message, capsys):
    # cosh(u / c) overflows at this waist: no row of nan, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([args[0], "--surface", "catenoid", "--c", "1e-3", *args[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gradcheck_builds_no_mesh_per_probe(tmp_path, monkeypatch):
    mesh_path = tmp_path / "ico2.off"
    ci.save_mesh(ci.make_icosphere(2, 1.0), mesh_path)
    built = []
    init = ci.TriMesh.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ci.TriMesh, "__init__", counting_init)
    assert run(["gradcheck", "--input", str(mesh_path), "--output", str(tmp_path / "g.csv")]) == 0
    assert 1 <= len(built) <= 2  # the loaded mesh, not 6 V + 1 = 973


def test_each_mesh_makes_one_corner_pass(tmp_path, monkeypatch):
    # every TriMesh makes one corner_terms pass and holds its face areas;
    # laplacian adds its own pass, and triangle_areas serves only the
    # complex-step passes of gradcheck's oracle
    mesh_path, field_path = tmp_path / "ico.off", tmp_path / "field.csv"
    ci.save_mesh(jiggled_icosphere(2, 2), mesh_path)
    field_path.write_text("".join(f"{v},{v % 5}\n" for v in range(162)))
    calls = {"corner_terms": 0, "triangle_areas": 0}

    def counting(name):
        original = getattr(ci.mesh, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counting(name)
        monkeypatch.setattr(ci.mesh, name, wrapper)
        monkeypatch.setattr(discrete, name, wrapper)
    common = ["--input", str(mesh_path), "--output", str(tmp_path / "out.csv")]
    for args, passes in [(["curvature"], 1), (["gradcheck"], 1),
                         (["laplacian", "--field", str(field_path)], 2),
                         (["flow", "--dt", "1e-4", "--steps", "4",
                           "--final-mesh", str(tmp_path / "final.off")], 5)]:
        calls.update(corner_terms=0, triangle_areas=0)
        assert run([*args, *common]) == 0, args
        assert calls["corner_terms"] == passes, args
        assert (calls["triangle_areas"] > 0) == (args[0] == "gradcheck"), args
    assert len(read_rows(tmp_path / "out.csv")[1]) == 5  # the flow ran all 4 steps


def test_gradcheck_has_no_step_option(tmp_path, capsys):
    # the complex-step oracle needs no step: a script passing --h is a
    # usage error, not a prefix of --help, as a prefix of any option is
    mesh_path = tmp_path / "ico1.off"
    ci.save_mesh(ci.make_icosphere(1, 1.0), mesh_path)
    assert run(["gradcheck", "--input", str(mesh_path), "--h", "1e-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --h 1e-5" in captured.err
    assert run(["curvature", "--input", str(mesh_path), "--tol", "0.5"]) == 1
    assert "unrecognized arguments: --tol 0.5" in capsys.readouterr().err


def test_laplacian_refuses_isolated_vertex(tmp_path, capsys):
    ico = ci.make_icosphere(1, 1.0)
    mesh = ci.TriMesh(np.vstack([[[0.0, 0.0, 0.0]], ico.positions]), ico.faces + 1)
    mesh_path = tmp_path / "ico.off"
    ci.save_mesh(mesh, mesh_path)
    field_path = tmp_path / "field.csv"
    field_path.write_text("".join(f"{v},1.0\n" for v in range(mesh.n_vertices)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["laplacian", "--input", str(mesh_path), "--field", str(field_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex 0 has no incident faces\n"


@pytest.mark.parametrize("isolated_first", [True, False])
def test_commands_name_the_vertex_they_refuse(isolated_first, tmp_path, capsys):
    # curvature and laplacian refuse the vertex in no face, not the
    # boundary vertex; flow refuses the boundary vertex, wherever the
    # other is numbered. laplacian refuses before it reads its field file,
    # which does not exist here
    mesh, isolated, boundary = isolated_and_boundary(isolated_first)
    mesh_path = tmp_path / "mesh.off"
    ci.save_mesh(mesh, mesh_path)
    no_faces = f"vertex {isolated} has no incident faces"
    open_mesh = ("mean curvature flow requires a closed mesh: "
                 f"vertex {boundary} lies on the mesh boundary")
    for args, message in [(["curvature"], no_faces),
                          (["laplacian", "--field", str(tmp_path / "missing.csv")], no_faces),
                          (["flow", "--dt", "1e-3", "--steps", "2"], open_mesh)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*args, "--input", str(mesh_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_non_manifold_vertex_is_a_boundary_row(tmp_path, capsys):
    # two tetrahedra sharing vertex 0: every edge has two faces, but the
    # one-ring of vertex 0 is two loops
    mesh = ci.TriMesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 0, 1],
                       [-1, 0, 0], [-1, 1, 0], [-1, 0, 1]],
                      [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3],
                       [0, 4, 5], [0, 6, 4], [0, 5, 6], [4, 6, 5]])
    mesh_path = tmp_path / "tetrahedra.off"
    ci.save_mesh(mesh, mesh_path)
    out = tmp_path / "curv.csv"
    assert run(["curvature", "--input", str(mesh_path), "--output", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0] == ["0", "", "", "", "", "", "1"]
    assert [row[6] for row in rows[1:]] == ["0"] * 6
    field_path = tmp_path / "field.csv"
    field_path.write_text("".join(f"{v},{v * v}\n" for v in range(mesh.n_vertices)))
    lap = tmp_path / "lap.csv"
    assert run(["laplacian", "--input", str(mesh_path), "--field", str(field_path),
                "--output", str(lap)]) == 0
    assert [row[0] for row in read_rows(lap)[1]] == ["1", "2", "3", "4", "5", "6"]
    capsys.readouterr()
    trace = tmp_path / "trace.csv"
    assert run(["flow", "--input", str(mesh_path), "--dt", "1e-3", "--steps", "2",
                "--output", str(trace)]) == 1
    assert capsys.readouterr().err == ("error: mean curvature flow requires a closed mesh: "
                                       "vertex 0 lies on the mesh boundary\n")
    assert not trace.exists()


def test_python_m_runs_the_cli(tmp_path):
    src = str(Path(ci.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}

    def python_m(*args):
        return subprocess.run([sys.executable, "-m", *args], env=env, capture_output=True,
                              text=True, timeout=120)

    done = python_m("curvint", "--help")
    assert done.returncode == 0
    assert "usage: curvint" in done.stdout
    mesh_path = tmp_path / "ico.off"
    done = python_m("curvint", "make", "--kind", "icosphere", "--level", "1",
                    "--output", str(mesh_path))
    assert done.returncode == 0, done.stderr
    assert ci.load_mesh(mesh_path).n_vertices == 42
    assert "usage: curvint" in python_m("curvint.cli", "--help").stdout


def test_laplacian_subcommand(tmp_path):
    mesh_path = tmp_path / "grid.off"
    assert run(["make", "--kind", "grid", "--n", "6", "--output", str(mesh_path)]) == 0
    mesh = ci.load_mesh(mesh_path)
    field_path = tmp_path / "field.csv"
    lines = ["vertex,value"]
    for v in range(mesh.n_vertices):
        x, y, _ = mesh.positions[v]
        lines.append(f"{v},{3.0 * x - 2.0 * y + 7.0}")
    field_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "lap.csv"
    assert run(["laplacian", "--input", str(mesh_path), "--field", str(field_path),
                "--output", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["vertex", "L"]
    assert len(rows) == 5 * 5  # interior vertices only
    assert all(abs(float(row[1])) <= 1e-10 for row in rows)


def test_laplacian_missing_field_value(tmp_path, capsys):
    mesh_path = tmp_path / "grid.off"
    run(["make", "--kind", "grid", "--n", "2", "--output", str(mesh_path)])
    field_path = tmp_path / "field.csv"
    field_path.write_text("vertex,value\n0,1.0\n")
    rc = run(["laplacian", "--input", str(mesh_path), "--field", str(field_path)])
    assert rc == 1
    assert "no value" in capsys.readouterr().err


@pytest.mark.parametrize("first", ["+0", "-0", "0"])
def test_laplacian_field_first_row_may_be_signed(first, tmp_path, capsys):
    # line 1 is a header only when its first field is no vertex index
    mesh = ci.make_icosphere(0, 1.0)
    mesh_path, field_path = tmp_path / "ico.off", tmp_path / "field.csv"
    ci.save_mesh(mesh, mesh_path)
    values = np.arange(mesh.n_vertices, dtype=float) ** 2
    rows = [f"{v},{x!r}" for v, x in enumerate(values.tolist())]
    field_path.write_text("\n".join([first + rows[0][1:], *rows[1:]]) + "\n")
    assert run(["laplacian", "--input", str(mesh_path), "--field", str(field_path)]) == 0
    assert capsys.readouterr().out == reference_laplacian_csv(mesh, values)


def test_laplacian_overflow_exits_1_naming_the_vertex(tmp_path, capsys):
    mesh = ci.make_icosphere(2, 1.0)
    mesh_path = tmp_path / "ico.off"
    ci.save_mesh(mesh, mesh_path)
    values = np.where(np.arange(mesh.n_vertices) % 2 == 0, -1e308, 1e308)
    field_path = tmp_path / "field.csv"
    field_path.write_text("".join(f"{v},{float(x)!r}\n" for v, x in enumerate(values)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = int(np.argmax(~np.isfinite(ci.laplacian_field(mesh, values))))
        rc = run(["laplacian", "--input", str(mesh_path), "--field", str(field_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: Laplacian is not finite at vertex {first}\n"


@pytest.mark.parametrize("rows,line,message", [
    (["0,1", "1,inf"], 3, "value must be finite"),
    (["0,1", "1,nan"], 3, "value must be finite"),
    (["0,-inf", "1,2"], 2, "value must be finite"),
    (["0,1", "1,2", "0,1"], 4, "vertex 0 given twice"),
    (["0,1", "1,2", "2,3", "1,2"], 5, "vertex 1 given twice"),
    (["0,1#x", "1,2", "2,3"], 2, "expected 'vertex,value'"),
    # on one line a range error beats a value that is not finite, which
    # beats a repeat; an earlier line beats a later one, and a malformed
    # row beats a vertex without a value
    (["0,1", "9,inf"], 3, "vertex 9 out of range"),
    (["0,1", "1,2", "1,nan"], 4, "value must be finite"),
    (["0,1", "0,1", "x"], 3, "vertex 0 given twice"),
    (["0,1", "x,1"], 3, "expected 'vertex,value'"),
    (["0,1", "99999999999999999999,1"], 3, "vertex 99999999999999999999 out of range"),
])
def test_laplacian_field_rows_are_checked(rows, line, message, tmp_path, capsys):
    mesh_path = tmp_path / "grid.off"
    ci.save_mesh(ci.make_grid(2), mesh_path)
    field_path = tmp_path / "field.csv"
    field_path.write_text("\n".join(["vertex,value"] + rows + [f"{v},0" for v in range(3, 9)]))
    rc = run(["laplacian", "--input", str(mesh_path), "--field", str(field_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field_path}:{line}: {message}\n"


@st.composite
def field_files(draw):
    """(text, n_vertices, regular) of a field file: rows in any order,
    indices and values in several spellings, and at most one fault;
    regular when the numpy block path must take it."""
    n = draw(st.integers(2, 9))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n,
                           max_size=n))
    indices = list(range(n))
    spelling = draw(st.sampled_from(["{}", "+{}", " {} ", "0{}"]))
    index = [spelling] * n
    fault = draw(st.sampled_from([None, "duplicate", "missing", "out of range", "negative",
                                  "1.0", "1e3", "nan", "inf", "-inf", "", "  "]))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if fault == "duplicate":
        indices[i] = j
    elif fault == "missing":
        del indices[i]
    elif fault == "out of range":
        indices[i] = n + draw(st.integers(0, 3))
    elif fault == "negative":
        indices[i] = -1
    elif fault in ("1.0", "1e3"):
        index[i] = "{}.0" if fault == "1.0" else "1e3"
    elif fault in ("nan", "inf", "-inf"):
        values[i] = float(fault)
    rows = []
    for k in draw(st.permutations(range(len(indices)))):
        value = draw(st.sampled_from(["{!r}", "{:.3g}", "\t{!r} ", "{:.17e}"]))
        rows.append(index[k].format(indices[k]) + "," + value.format(values[indices[k] % n]))
    if fault in ("", "  "):  # a blank line
        rows.insert(draw(st.integers(0, len(rows) - 1)), fault)
    header = draw(st.sampled_from([[], ["vertex,value"], [" v , x "]]))
    text = "\n".join(header + rows) + draw(st.sampled_from(["", "\n"]))
    # a spelling may round a finite value to infinity ("{:.3g}" of 1.797e308)
    return text, n, fault is None and all(math.isfinite(float(r.split(",")[1])) for r in rows)


def _field_outcome(read):
    try:
        return "ok", read().tobytes()
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(case=field_files())
def test_field_block_path_matches_the_line_loop(case, tmp_path_factory):
    # bitwise equal values, and the loop's message wherever it refuses
    text, n, regular = case
    path = tmp_path_factory.mktemp("field") / "field.csv"
    path.write_text(text)
    expected = _field_outcome(lambda: reference_read_field(path, n))
    assert _field_outcome(lambda: cli._read_field(str(path), n)) == expected
    if regular:  # converted by numpy alone, with no per-record conversion call
        assert expected[0] == "ok"
        with mock.patch.object(cli, "_field_row", side_effect=AssertionError("per record")):
            assert cli._read_field(str(path), n).tobytes() == expected[1]


def readme_commands():
    """The commands of the README's "Command line" block, as argument
    lists without the leading `curvint`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # the block makes every mesh it reads; field.csv, which it reads too,
    # holds x^2 + y^2 at each vertex of its grid.off
    monkeypatch.chdir(tmp_path)
    x, y, _ = ci.make_grid(8).positions.T
    Path("field.csv").write_text("vertex,value\n" + "".join(
        f"{v},{float(a * a + b * b)!r}\n" for v, (a, b) in enumerate(zip(x, y))))
    commands = readme_commands()
    assert [args[0] for args in commands] == [
        "verify", "verify", "limit", "make", "curvature", "gradcheck", "make", "laplacian",
        "flow"]
    for args in commands:
        assert run(args) == 0, (args, capsys.readouterr().err)
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curv.csv", "field.csv", "grid.off", "ico4.off", "lap.csv", "trace.csv"]


def test_flow_subcommand(tmp_path):
    mesh_path = tmp_path / "ico.off"
    run(["make", "--kind", "icosphere", "--level", "2", "--output", str(mesh_path)])
    out = tmp_path / "trace.csv"
    final_path = tmp_path / "final.off"
    rc = run(["flow", "--input", str(mesh_path), "--dt", "1e-3", "--steps", "10",
              "--output", str(out), "--final-mesh", str(final_path)])
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["step", "area", "max_B", "min_tri_area"]
    assert len(rows) == 11
    areas = [float(row[1]) for row in rows]
    assert all(b < a for a, b in zip(areas, areas[1:]))
    final = ci.load_mesh(final_path)
    assert final.n_vertices == 162


def test_deterministic_output(tmp_path):
    args = ["limit", "--surface", "torus", "--R", "2", "--r", "0.5",
            "--center", "1.0,1.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_malformed_mesh_exits_1(tmp_path, capsys):
    for label, fmt, text, line in MALFORMED_FIXTURES[:3]:
        path = tmp_path / f"{label}.{fmt}"
        path.write_text(text)
        rc = run(["curvature", "--input", str(path)])
        assert rc == 1
        assert f"{line}:" in capsys.readouterr().err


def test_unknown_mesh_suffix_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "mesh.ply"
    message = f"error: cannot infer mesh format from '{path}'; use a .obj or .off name\n"
    assert run(["make", "--kind", "grid", "--output", str(path)]) == 1
    assert capsys.readouterr().err == message
    assert not path.exists()
    path.write_text(ci.mesh_to_text(ci.make_grid(2), "off"))
    assert run(["curvature", "--input", str(path)]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("label,fmt,text,line,face,what", FACE_ERROR_FIXTURES,
                         ids=[f[0] for f in FACE_ERROR_FIXTURES])
def test_face_error_exits_1_naming_the_line(label, fmt, text, line, face, what, tmp_path,
                                            capsys):
    path = tmp_path / f"{label}.{fmt}"
    path.write_text(text)
    assert run(["curvature", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{line}: face {face} {what}" in err


@pytest.mark.parametrize("label,fmt,text,line,vertex", NON_FINITE_FIXTURES,
                         ids=[f[0] for f in NON_FINITE_FIXTURES])
def test_non_finite_coordinate_exits_1_naming_the_line(label, fmt, text, line, vertex,
                                                       tmp_path, capsys):
    path = tmp_path / f"{label}.{fmt}"
    path.write_text(text)
    assert run(["curvature", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:{line}: vertex {vertex} has a non-finite coordinate\n"


def test_oversized_vertex_count_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.off"
    path.write_text("OFF\n1000000000000 0 0\n")
    assert run(["curvature", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:3: unexpected end of file, expected vertex 0\n"


def test_usage_errors_exit_1(capsys):
    assert run(["frobnicate"]) == 1
    assert run(["verify", "--surface", "sphere", "--region", "cap",
                "--theta0", "1.0", "--no-such-flag"]) == 1
    assert run([]) == 1
    capsys.readouterr()


def test_back_to_back_runs_share_one_parser_and_no_flag_values(tmp_path, monkeypatch, capsys):
    cap = ["verify", "--surface", "sphere", "--region", "cap", "--theta0", "1.0"]
    region, rule = ci.RectRegion(1e-6, 1.0, 0.0, 2 * math.pi), ci.gauss_legendre(16, panels=8)
    assert run(["make", "--kind", "grid", "--n", "3", "--output", str(tmp_path / "g.off")]) == 0
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for radius, argv in [(3.0, [*cap, "--R", "3"]), (1.0, cap)]:  # --R 3 must not carry over
        assert run(argv) == 0
        sphere = ci.Sphere(radius)
        assert capsys.readouterr().out == reference_verify_csv(
            sphere, region, ci.verify_identity(sphere, region, rule))
    assert run(["curvature", "--input", str(tmp_path / "g.off")]) == 0
    assert capsys.readouterr().out == reference_curvature_csv(ci.load_mesh(tmp_path / "g.off"))
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: curvint ")
    assert run(["verify", "--surface", "sphere"]) == 1  # no --region
    assert "the following arguments are required: --region" in capsys.readouterr().err
    assert run(["limit", "--surface", "torus", "--center", "1.0,1.0"]) == 0
    study = ci.shrinking_limit(ci.Torus(2.0, 0.5), (1.0, 1.0), [0.2, 0.1, 0.05, 0.025])
    assert capsys.readouterr().out == reference_limit_csv(study)
    assert made == []  # every call parsed with the parser built before


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    for sub in ("verify", "limit", "curvature", "gradcheck", "laplacian", "make", "flow"):
        assert run([sub, "--help"]) == 0
    capsys.readouterr()


def test_bad_surface_parameters_exit_1(capsys):
    rc = run(["verify", "--surface", "torus", "--R", "0.5", "--r", "2.0",
              "--region", "rect", "--u0", "0", "--u1", "1", "--v0", "0", "--v1", "1"])
    assert rc == 1
    capsys.readouterr()


def test_infinite_torus_radius_exits_1_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["verify", "--surface", "torus", "--R", "inf", "--r", "0.5", "--region", "rect",
                  "--u0", "0.3", "--u1", "1.1", "--v0", "0.2", "--v1", "0.9"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad parameters for surface 'torus': R must be finite, got inf\n"


def test_stdout_output(capsys):
    rc = run(["verify", "--surface", "plane", "--region", "rect",
              "--u0", "0", "--u1", "1", "--v0", "0", "--v1", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("surface,region,")


@pytest.mark.parametrize("args", [
    ["limit", "--surface", "torus", "--center", "-0.5,0.3"],
    ["limit", "--surface", "torus", "--center", "-5e-1,-3E-1", "--radii", "0.2,0.1"],
    ["verify", "--surface", "plane", "--region", "rect",
     "--u0", "-1e-3", "--u1", "1", "--v0", "0", "--v1", "1"],
    ["verify", "--surface", "saddle", "--region", "rect",
     "--u0", "-2e-1", "--u1", "-1e-1", "--v0", "-3e-1", "--v1", "-1.5e-1"],
    ["verify", "--surface", "saddle", "--region", "disk",
     "--uc", "-2e-1", "--vc", "-3e-1", "--rho", "0.1"],
])
def test_negative_values_in_exponent_or_list_form_are_values(args, capsys):
    # argparse by itself reads a value such as -1e-3 or -0.5,0.3 after a
    # flag as an unknown flag; the "--flag=value" spelling always worked
    joined = []
    for token in args:
        if token[0] == "-" and not token.startswith("--"):  # a value: join it to its flag
            joined[-1] += "=" + token
        else:
            joined.append(token)
    assert len(joined) < len(args)
    assert run(joined) == 0
    expected = capsys.readouterr()
    assert run(args) == 0
    assert capsys.readouterr() == expected
    assert expected.err == "" and expected.out.count("\n") > 1


def test_flow_refuses_an_unknown_final_mesh_format_before_any_work(tmp_path, capsys):
    # the destination's format is inferred before the input is read: no
    # trace is written, neither to --output nor to stdout
    mesh_path, missing = tmp_path / "ico1.off", tmp_path / "missing.off"
    ci.save_mesh(ci.make_icosphere(1, 1.0), mesh_path)
    final, trace = tmp_path / "final.txt", tmp_path / "trace.csv"
    for source in (mesh_path, missing):
        for output in ([], ["--output", str(trace)]):
            assert run(["flow", "--input", str(source), "--dt", "1e-3", "--steps", "3", *output,
                        "--final-mesh", str(final)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: cannot infer mesh format from '{final}'; "
                                    "use a .obj or .off name\n")
    assert not trace.exists() and not final.exists()


@pytest.mark.parametrize("missing,trace_file", [("--final-mesh", True), ("--final-mesh", False),
                                                ("--output", True)],
                         ids=["final-mesh", "final-mesh-trace-to-stdout", "output"])
def test_flow_refuses_a_destination_it_cannot_open_before_any_step(missing, trace_file, tmp_path,
                                                                   capsys, monkeypatch):
    # both destinations are opened, --final-mesh first, before the first
    # step: a path in a missing directory runs no step and writes no trace
    mesh_path = tmp_path / "ico1.off"
    ci.save_mesh(ci.make_icosphere(1, 1.0), mesh_path)
    steps = []
    monkeypatch.setattr(ci.flow, "mcf_step", lambda *args: steps.append(args))
    trace, final = tmp_path / "t.csv", tmp_path / "out.off"
    dest = {"--final-mesh": final, **({"--output": trace} if trace_file else {})}
    dest[missing] = tmp_path / "nodir" / dest[missing].name
    args = [part for flag, path in dest.items() for part in (flag, str(path))]
    assert run(["flow", "--input", str(mesh_path), "--dt", "1e-3", "--steps", "3", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{dest[missing]}'\n"
    assert steps == []
    assert not trace.exists()
    # the final mesh's file, opened before --output failed, is left empty
    assert final.read_text() == "" if missing == "--output" else not final.exists()


@pytest.mark.parametrize("final", ["same.off", "./same.off", "sub/../same.off", "link.off"])
def test_flow_refuses_one_file_as_both_destinations_before_any_work(final, tmp_path, capsys,
                                                                    monkeypatch):
    # two handles on one file would interleave the mesh and the trace; a
    # missing input shows that nothing is read either
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    Path("same.off").write_text("old\n")
    Path("link.off").symlink_to("same.off")
    ci.save_mesh(ci.make_icosphere(0), "ico0.off")
    for source in ("missing.off", "ico0.off"):
        assert run(["flow", "--input", source, "--dt", "1e-4", "--steps", "100",
                    "--output", "same.off", "--final-mesh", final]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --output and --final-mesh name the same file: '{final}'\n"
    assert Path("same.off").read_text() == "old\n"


def test_flow_that_fails_mid_way_leaves_its_destinations_empty(tmp_path, capsys):
    # positions that overflow in the first step: the opened files keep no
    # partial trace and no earlier content
    mesh_path, trace, final = tmp_path / "ico1.off", tmp_path / "t.csv", tmp_path / "out.off"
    ci.save_mesh(ci.make_icosphere(1, 1.0), mesh_path)
    trace.write_text("old\n")
    assert run(["flow", "--input", str(mesh_path), "--dt", "1e308", "--steps", "3",
                "--output", str(trace), "--final-mesh", str(final)]) == 1
    assert capsys.readouterr().err == "error: face 0 has a non-finite area (nan)\n"
    assert trace.read_text() == "" and final.read_text() == ""


def test_flow_of_a_mesh_without_faces_exits_1_before_opening_its_destinations(tmp_path, capsys):
    # the flow gate refuses it: no numpy message, no trace, no final mesh
    mesh_path, trace, final = tmp_path / "empty.off", tmp_path / "t.csv", tmp_path / "out.off"
    mesh_path.write_text("OFF\n0 0 0\n")
    for args in ([], ["--output", str(trace), "--final-mesh", str(final)]):
        assert run(["flow", "--input", str(mesh_path), "--dt", "1e-3", "--steps", "2", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mean curvature flow requires a mesh with faces\n"
    assert not trace.exists() and not final.exists()
