import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import curvint as ci
from curvint import discrete
from curvint.cli import run

from conftest import FACE_ERROR_FIXTURES, MALFORMED_FIXTURES


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


def test_verify_missing_region_params_exits_1(tmp_path, capsys):
    rc = run(["verify", "--surface", "sphere", "--R", "1", "--region", "rect"])
    assert rc == 1
    assert "u0" in capsys.readouterr().err


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
    # an impossible tolerance trips the gate
    assert run(["gradcheck", "--input", str(mesh_path), "--max-rel-err", "1e-15",
                "--output", str(tmp_path / "g2.csv")]) == 2


def test_gradcheck_area_critical_vertices(tmp_path, monkeypatch):
    # on a flat grid every interior gradient is zero: analytic and FD are
    # both roundoff there, which must not count as a relative error of 1
    mesh_path = tmp_path / "grid.off"
    assert run(["make", "--kind", "grid", "--n", "6", "--output", str(mesh_path)]) == 0
    args = ["gradcheck", "--input", str(mesh_path), "--max-rel-err", "1e-6",
            "--output", str(tmp_path / "g.csv")]
    assert run(args) == 0
    # a wrong gradient at exactly those vertices still trips the gate
    exact = discrete.area_gradient

    def wrong(mesh, v):
        return exact(mesh, v) + (0.0 if mesh.boundary_vertices()[v] else 1e-7)

    monkeypatch.setattr(discrete, "area_gradient", wrong)
    assert run(args) == 2


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


@pytest.mark.parametrize("label,fmt,text,line,face,what", FACE_ERROR_FIXTURES,
                         ids=[f[0] for f in FACE_ERROR_FIXTURES])
def test_face_error_exits_1_naming_the_line(label, fmt, text, line, face, what, tmp_path,
                                            capsys):
    path = tmp_path / f"{label}.{fmt}"
    path.write_text(text)
    assert run(["curvature", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{line}: face {face} {what}" in err


def test_usage_errors_exit_1(capsys):
    assert run(["frobnicate"]) == 1
    assert run(["verify", "--surface", "sphere", "--region", "cap",
                "--theta0", "1.0", "--no-such-flag"]) == 1
    assert run([]) == 1
    capsys.readouterr()


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


def test_stdout_output(capsys):
    rc = run(["verify", "--surface", "plane", "--region", "rect",
              "--u0", "0", "--u1", "1", "--v0", "0", "--v1", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("surface,region,")
