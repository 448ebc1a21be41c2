"""Acceptance suite: one test per shipped claim, each at its stated
tolerance, printing a PASS line when it holds (run with -s to see them).

Three sub-claims about discrete-operator consistency constants (criterion
6, the quadratic-field part of criterion 8, and the radius-tracking part
of criterion 9) do not hold for the one-ring quotient operator implemented
here; the assertions are kept at their stated tolerances and fail with the
measured values. See the README section on the known accuracy behavior of
the one-ring estimator for the analysis.
"""

import io
import math

import numpy as np
import pytest

import curvint as ci
from curvint import ParseError
from curvint.cli import run

from conftest import (
    MALFORMED_FIXTURES,
    bundled_meshes,
    interior_vertices,
    perturbed_meshes,
    random_disk,
    random_rect,
)


def ok(criterion: str, detail: str = ""):
    print(f"[acceptance] {criterion}: PASS {detail}".rstrip())


def cap_region(theta0):
    return ci.RectRegion(1e-6, theta0, 0.0, 2.0 * math.pi)


# -- criterion 1: patch/contour identity ------------------------------------


def test_c01_identity_sphere_cap():
    report = ci.verify_identity(ci.Sphere(1.0), cap_region(math.pi / 3))
    exact = np.array([0.0, 0.0, -1.5 * math.pi])
    lhs_err = np.linalg.norm(report.lhs - exact)
    rhs_err = np.linalg.norm(report.rhs - exact)
    assert lhs_err <= 1e-7, f"lhs off the closed form by {lhs_err:.3e}"
    assert rhs_err <= 1e-7, f"rhs off the closed form by {rhs_err:.3e}"
    ok("criterion 1a (sphere cap)", f"lhs {lhs_err:.2e}, rhs {rhs_err:.2e}")


def test_c01_identity_random_rects():
    surfaces = [ci.Torus(2.0, 0.5), ci.saddle(), ci.Cylinder(1.0)]
    worst = 0.0
    for si, surface in enumerate(surfaces):
        rng = np.random.default_rng(100 + si)
        produced = 0
        while produced < 10:
            region = random_rect(surface, rng)
            report = ci.verify_identity(surface, region)
            if max(np.linalg.norm(report.lhs), np.linalg.norm(report.rhs)) < 1e-3:
                continue  # near-null identity: relative error is meaningless
            worst = max(worst, report.rel_err)
            assert report.rel_err <= 1e-8, (
                f"{surface.name} {region.label}: rel_err {report.rel_err:.3e}")
            produced += 1
    ok("criterion 1b (30 random rects)", f"worst rel_err {worst:.2e}")


# -- criterion 2: shrinking-disk limit ---------------------------------------


@pytest.mark.parametrize("surface,center", [
    (ci.Sphere(1.0), (math.pi / 3, math.pi / 4)),
    (ci.Torus(2.0, 0.5), (1.0, 1.0)),
], ids=["sphere", "torus"])
def test_c02_shrinking_limit(surface, center):
    study = ci.shrinking_limit(surface, center, [0.2, 0.1, 0.05, 0.025])
    assert np.all(np.diff(study.errors) < 0), f"errors not decreasing: {study.errors}"
    final_rel = study.errors[-1] / np.linalg.norm(study.target)
    assert final_rel <= 1e-3, f"final relative error {final_rel:.3e}"
    assert study.observed_order >= 1.0, f"observed order {study.observed_order:.2f}"
    ok(f"criterion 2 ({surface.name})",
       f"final rel {final_rel:.2e}, order {study.observed_order:.2f}")


# -- criterion 3: minimal-surface contours -----------------------------------


def test_c03_minimal_surface_contours():
    worst = 0.0
    for si, surface in enumerate([ci.Catenoid(1.0), ci.Enneper()]):
        rng = np.random.default_rng(300 + si)
        for k in range(10):
            region = random_rect(surface, rng) if k % 2 == 0 \
                else random_disk(surface, rng)
            value = float(np.linalg.norm(ci.rhs_integral(surface, region)))
            length = ci.contour_length(surface, region)
            worst = max(worst, value / length)
            assert value <= 1e-8 * length, (
                f"{surface.name} {region.label}: |contour integral| {value:.3e} "
                f"for length {length:.3f}")
    ok("criterion 3 (minimal contours)", f"worst |integral|/length {worst:.2e}")


# -- criterion 4: flat meshes ------------------------------------------------


def test_c04_flat_grids_have_zero_curvature():
    worst = 0.0
    for n in (8, 16, 32, 64):
        grid = ci.make_grid(n)
        for v in interior_vertices(grid):
            star = ci.build_star(grid, int(v))
            scale = star.total_edge_length / star.ring_area
            rel = np.linalg.norm(ci.vector_mean_curvature(grid, int(v)).vector) / scale
            worst = max(worst, rel)
            assert rel <= 1e-12, f"grid {n} vertex {v}: |B| at {rel:.3e} of scale"
    ok("criterion 4 (flat grids)", f"worst relative |B| {worst:.2e}")


# -- criterion 5: area-gradient property -------------------------------------


def test_c05_star_sum_is_area_gradient():
    worst_identity = 0.0
    worst_fd = 0.0
    for mesh in perturbed_meshes(20):
        base = np.asarray(mesh.positions)
        for v in range(mesh.n_vertices):
            ss = ci.star_sum(mesh, v)
            ag = ci.area_gradient(mesh, v)
            denom = max(np.linalg.norm(ss), 2.0 * np.linalg.norm(ag), 1e-30)
            rel = np.linalg.norm(ss + 2.0 * ag) / denom
            worst_identity = max(worst_identity, rel)
            assert rel <= 1e-12, f"vertex {v}: star sum vs -2 grad at {rel:.3e}"

            def area_of(p, v=v):
                moved = base.copy()
                moved[v] = p
                return ci.total_area(mesh.with_positions(moved))

            fd = ci.central_gradient(area_of, base[v], 1e-5)
            rel_fd = np.linalg.norm(ag - fd) / max(
                np.linalg.norm(ag), np.linalg.norm(fd), 1e-30)
            worst_fd = max(worst_fd, rel_fd)
            assert rel_fd <= 1e-6, f"vertex {v}: gradient vs oracle at {rel_fd:.3e}"
    ok("criterion 5 (area gradient)",
       f"worst identity {worst_identity:.2e}, worst vs oracle {worst_fd:.2e}")


# -- criterion 6: discrete-continuous consistency -----------------------------


def test_c06_icosphere_refinement():
    errors = []
    for level in (1, 2, 3, 4):
        mesh = ci.make_icosphere(level, 1.0)
        worst = 0.0
        for v in range(mesh.n_vertices):
            b = ci.vector_mean_curvature(mesh, v).vector
            outward = mesh.positions[v] / np.linalg.norm(mesh.positions[v])
            worst = max(worst, abs(float(b @ outward) + 2.0))
        errors.append(worst)
    assert all(b < a for a, b in zip(errors, errors[1:])), (
        f"max |B.N + 2| not strictly decreasing over levels 1-4: {errors}")
    assert errors[-1] <= 0.05 * 2.0, (
        f"max |B.N + 2| at level 4 is {errors[-1]:.4f} ({errors[-1] / 2:.1%} of 2); "
        "the one-ring quotient converges to a valence-dependent multiple of "
        "N*H (about -4/3 at valence 6, -1.53 at valence 5), not to -2")
    ok("criterion 6 (icosphere refinement)", f"errors {errors}")


# -- criterion 7: translation invariance --------------------------------------


def test_c07_translation_invariance():
    worst = 0.0
    for name, mesh in bundled_meshes():
        total = np.zeros(3)
        scale = 0.0
        for v in range(mesh.n_vertices):
            total += ci.star_sum(mesh, v)
            scale += ci.build_star(mesh, v).total_edge_length
        rel = np.linalg.norm(total) / scale
        worst = max(worst, rel)
        assert rel <= 1e-12, f"{name}: net star sum at {rel:.3e} of total scale"
    ok("criterion 7 (translation invariance)", f"worst {worst:.2e}")


# -- criterion 8: surface Laplacian --------------------------------------------


def test_c08_laplacian_affine_fields():
    worst = 0.0
    for n in (16, 32):
        grid = ci.make_grid(n)
        values = 3.0 * grid.positions[:, 0] - 2.0 * grid.positions[:, 1] + 7.0
        lap = ci.laplacian_field(grid, values)
        for v in interior_vertices(grid):
            worst = max(worst, abs(lap[v]))
            assert abs(lap[v]) <= 1e-10, f"grid {n} vertex {v}: L = {lap[v]:.3e}"
    ok("criterion 8a (affine fields)", f"worst |L| {worst:.2e}")


def test_c08_laplacian_quadratic_field():
    medians = {}
    for n in (32, 64):
        grid = ci.make_grid(n)
        values = grid.positions[:, 0] ** 2 + grid.positions[:, 1] ** 2
        lap = ci.laplacian_field(grid, values)
        medians[n] = float(np.median(lap[interior_vertices(grid)]))
    assert abs(medians[64] - 4.0) <= abs(medians[32] - 4.0) + 1e-12, (
        "error grew under refinement")
    assert abs(medians[64] - 4.0) <= 0.02 * 4.0, (
        f"interior median is {medians[64]:.6f}, not within 2% of 4; the "
        "one-ring quotient evaluates to exactly 8/3 for this field on the "
        "uniform single-diagonal grid at every resolution")
    ok("criterion 8b (quadratic field)", f"medians {medians}")


def test_c08_laplacian_of_coordinates_is_curvature():
    worst = 0.0
    for mesh in perturbed_meshes(6):
        inner = interior_vertices(mesh)
        for v in inner:
            b = ci.vector_mean_curvature(mesh, int(v)).vector
            for k in range(3):
                lk = ci.laplacian(mesh, int(v), mesh.positions[:, k])
                err = abs(lk - b[k])
                worst = max(worst, err)
                assert err <= 1e-12 * max(1.0, abs(b[k])), (
                    f"vertex {v} component {k}: {err:.3e}")
    ok("criterion 8c (coordinate fields)", f"worst |L - B| {worst:.2e}")


# -- criterion 9: mean curvature flow ------------------------------------------


def flow_result():
    mesh = ci.make_icosphere(3, 1.0)
    return ci.run_flow(mesh, 1e-3, 100)


def test_c09_flow_area_descends():
    trace, _ = flow_result()
    assert trace.stop_reason is None, trace.stop_reason
    areas = [s.area for s in trace.steps]
    assert len(areas) == 101
    assert all(b < a for a, b in zip(areas, areas[1:])), "area increased at a step"
    ok("criterion 9a (area descent)",
       f"area {areas[0]:.4f} -> {areas[-1]:.4f} over 100 steps")


def test_c09_flow_tracks_shrinking_sphere():
    trace, _ = flow_result()
    area_final = trace.steps[-1].area
    effective_radius = math.sqrt(area_final / (4.0 * math.pi))
    oracle = math.sqrt(1.0 - 4.0 * 0.1)  # dR/dt = -2/R integrated to t = 0.1
    rel = abs(effective_radius - oracle) / oracle
    assert rel <= 0.05, (
        f"effective radius {effective_radius:.4f} vs oracle {oracle:.4f} "
        f"({rel:.1%}); the flow follows dR/dt = -(4/3)/R because the "
        "one-ring curvature of a valence-6 sphere mesh is -4/3 per radius, "
        "predicting radius sqrt(1 - 8t/3) = 0.8563 at t = 0.1")
    ok("criterion 9b (radius tracking)", f"rel deviation {rel:.2%}")


# -- criterion 10: parsers -------------------------------------------------------


def test_c10_round_trip():
    for fmt in ("obj", "off"):
        for name, mesh in bundled_meshes():
            text = ci.mesh_to_text(mesh, fmt)
            again = ci.load_mesh(io.StringIO(text), fmt=fmt)
            assert np.array_equal(again.faces, mesh.faces), (name, fmt)
            max_dev = float(np.max(np.abs(again.positions - mesh.positions))) \
                if mesh.n_vertices else 0.0
            assert max_dev <= 1e-12, (name, fmt, max_dev)
    ok("criterion 10a (round trips)")


def test_c10_malformed_inputs(tmp_path, capsys):
    assert len(MALFORMED_FIXTURES) == 12
    for label, fmt, text, line in MALFORMED_FIXTURES:
        with pytest.raises(ParseError) as err:
            ci.load_mesh(io.StringIO(text), fmt=fmt)
        assert err.value.line == line, (
            f"{label}: reported line {err.value.line}, expected {line}")
        path = tmp_path / f"{label}.{fmt}"
        path.write_text(text)
        rc = run(["curvature", "--input", str(path)])
        assert rc == 1, f"{label}: exit code {rc}"
        assert f"{line}:" in capsys.readouterr().err
    ok("criterion 10b (12 malformed fixtures)")
