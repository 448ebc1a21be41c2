"""Command-line interface.

Subcommands: verify (patch/contour identity report), limit (shrinking-disk
study), curvature (per-vertex B), gradcheck (area gradient against the
finite-difference oracle), laplacian (per-vertex field Laplacian), make
(primitive generation) and flow (mean-curvature-flow trace).

Exit codes: 0 success, 1 bad input or usage, 2 a requested check exceeded
its tolerance. Numbers print as "%.17g", indices as "%d". The per-vertex
tables (curvature, gradcheck, laplacian) are written by the array kernel
of `curvint._text`; the reports of a few rows (verify, limit, the flow
trace) are one %-format each, microseconds against the kernel's fixed
cost of about a hundred numpy calls.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import contour, discrete, flow as flow_mod, mesh as mesh_mod
from ._text import render
from .errors import CurvintError, EvaluationError
from .numerics import check_nonnegative, gauss_legendre
from .surfaces import surface_from_name

__all__ = ["build_parser", "run", "main"]

_CAP_POLE_MARGIN = 1e-6


def _emit(output: str | None, header: str, rows: str, values=None) -> None:
    """Write a CSV table to output (default stdout): the header line, then
    rows, the text of the rows; or given values, the template of every
    line, filled from values row-major by one %-format ("%.17g" rounds as
    format(x, ".17g"))."""
    text = header + "\n" + (rows if values is None else rows % tuple(np.ravel(values).tolist()))
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _given(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _surface_from_args(args) -> object:
    return surface_from_name(args.surface, **_given(args, ("R", "r", "c")))


def _region_from_args(args, surface) -> object:
    if args.region == "rect":
        if None in (args.u0, args.u1, args.v0, args.v1):
            raise ValueError("rect region needs --u0 --u1 --v0 --v1")
        return contour.RectRegion(args.u0, args.u1, args.v0, args.v1)
    if args.region == "disk":
        if None in (args.uc, args.vc, args.rho):
            raise ValueError("disk region needs --uc --vc --rho")
        return contour.DiskRegion(args.uc, args.vc, args.rho)
    # a cap: argparse's choices admit no other region
    if args.theta0 is None:
        raise ValueError("cap region needs --theta0")
    if surface.name != "sphere":
        raise ValueError("cap regions are defined on the sphere only")
    if not math.isfinite(args.theta0):
        raise ValueError("cap colatitude must be finite")
    if args.theta0 <= _CAP_POLE_MARGIN:
        raise ValueError(f"cap colatitude must exceed {_CAP_POLE_MARGIN:g}")
    return contour.RectRegion(_CAP_POLE_MARGIN, args.theta0, 0.0, 2.0 * math.pi)


def _floats(flag: str, tokens) -> list[float]:
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _rule_from_args(args):
    return gauss_legendre(args.quad_n, panels=args.quad_panels)


_FIELD_ROW = [("v", np.int64), ("x", float)]


def _field_row(record: str) -> list:
    """[(vertex, value)] of one record; no mesh has a vertex beyond int64."""
    try:
        v, x = [p.strip() for p in record.split(",")]
        v, x = int(v), float(x)
    except ValueError:
        raise ValueError("expected 'vertex,value'") from None
    if not -2 ** 63 <= v < 2 ** 63:
        raise ValueError(f"vertex {v} out of range")
    return [(v, x)]


def _read_field(path: str, n_vertices: int) -> np.ndarray:
    """One value per vertex from a `vertex,value` CSV: blank lines are
    skipped, there is no comment syntax, and line 1 is a header when it
    has two fields and the first is no integer. The earliest faulty line
    is named; on one line a malformed row is reported before an index out
    of range, a value that is not finite, and then a vertex given twice.
    A vertex without a value is reported last."""
    numbers, records = mesh_mod.significant_lines(Path(path).read_text())
    head = records[0].split(",") if numbers and numbers[0] == 1 else []
    if len(head) == 2:
        try:
            int(head[0].strip())
        except ValueError:
            numbers, records = numbers[1:], records[1:]
    rows, lines, fault = mesh_mod.convert_rows(records, numbers, _field_row, _FIELD_ROW, 1,
                                               delimiter=",")
    rows = np.array(rows, dtype=_FIELD_ROW).reshape(-1)
    v, x = rows["v"], rows["x"]
    out_of_range = (v < 0) | (v >= n_vertices)
    finite = np.isfinite(x)
    repeated = np.ones(len(v), dtype=bool)
    repeated[np.unique(v, return_index=True)[1]] = False
    bad = out_of_range | ~finite | repeated
    if bad.any():  # these rows come before any fault of the conversion
        k = int(np.argmax(bad))
        fault = (f"vertex {v[k]} out of range" if out_of_range[k] else
                 "value must be finite" if not finite[k] else
                 f"vertex {v[k]} given twice"), lines[k]
    if fault:
        raise ValueError(f"{path}:{fault[1]}: {fault[0]}")
    values = np.full(n_vertices, np.nan)
    values[v] = x  # every x is finite: nan marks a vertex without a value
    if np.isnan(values).any():
        raise ValueError(f"{path}: no value for vertex {int(np.argmax(np.isnan(values)))}")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args) -> int:
    if args.max_rel_err is not None:
        check_nonnegative(args.max_rel_err, "--max-rel-err")
    surface = _surface_from_args(args)
    region = _region_from_args(args, surface)
    report = contour.verify_identity(surface, region, _rule_from_args(args))
    literal = f"{surface.name},{region.label},".replace("%", "%%")
    _emit(args.output, "surface,region,lhs_x,lhs_y,lhs_z,rhs_x,rhs_y,rhs_z,abs_err,rel_err,area",
          literal + ",".join(["%.17g"] * 9) + "\n",
          [*report.lhs, *report.rhs, report.abs_err, report.rel_err, report.area])
    if args.max_rel_err is not None and report.rel_err > args.max_rel_err:
        print(f"verification failed: rel_err {report.rel_err:.3e} exceeds "
              f"{args.max_rel_err:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_limit(args) -> int:
    surface = _surface_from_args(args)
    center = _floats("--center", args.center.split(","))
    if len(center) != 2:
        raise ValueError("--center must be 'u,v'")
    radii = _floats("--radii", args.radii.split(","))
    study = contour.shrinking_limit(surface, center, radii, _rule_from_args(args))
    row = "%.17g," * 5
    _emit(args.output, "radius,est_x,est_y,est_z,err,observed_order",
          (row + "\n") * (len(study.radii) - 1) + row + "%.17g\n",
          [*np.column_stack([study.radii, study.estimates, study.errors]).ravel(),
           study.observed_order])
    return 0


def _cmd_curvature(args) -> int:
    m = mesh_mod.load_mesh(args.input)
    vec, magnitude, near_minimal, boundary = discrete.curvature_arrays(m, args.tol_direction)
    # a boundary row prints its vertex index and boundary flag only
    blank = np.outer(boundary, [False] + [True] * 5 + [False])
    _emit(args.output, "vertex,Bx,By,Bz,magnitude,near_minimal,boundary",
          render([np.arange(m.n_vertices), *vec.T, magnitude, near_minimal, boundary],
                 blank=blank))
    return 0


def _cmd_gradcheck(args) -> int:
    if args.max_rel_err is not None:
        check_nonnegative(args.max_rel_err, "--max-rel-err")
    m = mesh_mod.load_mesh(args.input)
    fd = discrete.fd_area_gradient(m, args.h)
    kernel = m.corner_kernel()
    # area_gradient at every vertex; 0.0 - x: a vanishing sum gives +0.0
    analytic = 0.0 - 0.5 * kernel.star_sums
    # floor of the relative error's denominator: where the gradient
    # vanishes (area-critical vertices) both sides are roundoff of the
    # star's terms, whose scale is sum(a_i) / 2
    floor = 1e-8 * 0.5 * kernel.edge_lengths
    norms = discrete.row_norms
    rel = norms(analytic - fd) / np.maximum.reduce(
        [norms(analytic), norms(fd), floor, np.full_like(floor, 1e-30)])
    worst = float(rel.max(initial=0.0))
    _emit(args.output, "vertex,analytic_x,analytic_y,analytic_z,fd_x,fd_y,fd_z,rel_err",
          render([np.arange(m.n_vertices), *analytic.T, *fd.T, rel]))
    if args.max_rel_err is not None and worst > args.max_rel_err:
        print(f"gradient check failed: worst rel_err {worst:.3e} exceeds "
              f"{args.max_rel_err:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_laplacian(args) -> int:
    m = mesh_mod.load_mesh(args.input)
    interior = np.flatnonzero(~discrete.refuse_isolated(m))
    values = _read_field(args.field, m.n_vertices)
    lap = discrete.laplacian_field(m, values)
    bad = interior[~np.isfinite(lap[interior])]
    if len(bad):
        raise EvaluationError("Laplacian is not finite", where=f"vertex {bad[0]}")
    _emit(args.output, "vertex,L", render([interior, lap[interior]]))
    return 0


def _cmd_make(args) -> int:
    m = mesh_mod.make_primitive(
        args.kind, **_given(args, ("n", "level", "R", "L", "c", "n_u", "n_v")))
    mesh_mod.save_mesh(m, args.output)
    return 0


def _cmd_flow(args) -> int:
    m = mesh_mod.load_mesh(args.input)
    trace, final = flow_mod.run_flow(m, args.dt, args.steps)
    _emit(args.output, "step,area,max_B,min_tri_area", "%d,%.17g,%.17g,%.17g\n" * len(trace.steps),
          [(s.index, s.area, s.max_curvature, s.min_face_area) for s in trace.steps])
    if trace.stop_reason:
        print(f"stopped early: {trace.stop_reason}", file=sys.stderr)
    if args.final_mesh:
        mesh_mod.save_mesh(final, args.final_mesh)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_surface_flags(p: argparse.ArgumentParser):
    p.add_argument("--surface", required=True,
                   help="plane, sphere, cylinder, torus, catenoid, enneper or saddle")
    p.add_argument("--R", type=float, help="radius (sphere/cylinder/torus major)")
    p.add_argument("--r", type=float, help="torus minor radius")
    p.add_argument("--c", type=float, help="catenoid waist")


def _add_quad_flags(p: argparse.ArgumentParser):
    p.add_argument("--quad-n", type=int, default=16, help="Gauss-Legendre nodes per panel")
    p.add_argument("--quad-panels", type=int, default=8, help="panels per interval/edge")


def _add_output_flag(p: argparse.ArgumentParser):
    p.add_argument("--output", help="CSV destination (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvint",
        description="Contour-integral mean curvature: analytic verification "
                    "and discrete mesh operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="evaluate both sides of the patch/contour identity")
    _add_surface_flags(p)
    p.add_argument("--region", required=True, choices=["rect", "disk", "cap"])
    p.add_argument("--u0", type=float)
    p.add_argument("--u1", type=float)
    p.add_argument("--v0", type=float)
    p.add_argument("--v1", type=float)
    p.add_argument("--uc", type=float)
    p.add_argument("--vc", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--theta0", type=float, help="cap colatitude (sphere)")
    _add_quad_flags(p)
    p.add_argument("--max-rel-err", type=float,
                   help="exit 2 when rel_err exceeds this bound")
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("limit", help="shrinking-disk limit study at a point")
    _add_surface_flags(p)
    p.add_argument("--center", required=True, help="'u,v' disk center")
    p.add_argument("--radii", default="0.2,0.1,0.05,0.025",
                   help="comma-separated decreasing radii")
    _add_quad_flags(p)
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("curvature", help="per-vertex discrete vector mean curvature")
    p.add_argument("--input", required=True, help="OBJ/OFF mesh path")
    p.add_argument("--tol-direction", type=float, default=1e-8,
                   help="relative threshold at or below which the direction is withheld")
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("gradcheck",
                       help="area gradient vs central-difference oracle, per vertex")
    p.add_argument("--input", required=True, help="OBJ/OFF mesh path")
    p.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--max-rel-err", type=float,
                   help="exit 2 when any vertex exceeds this bound")
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("laplacian", help="per-vertex surface Laplacian of a field")
    p.add_argument("--input", required=True, help="OBJ/OFF mesh path")
    p.add_argument("--field", required=True, help="CSV 'vertex,value' field file")
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_laplacian)

    p = sub.add_parser("make", help="generate a mesh primitive")
    p.add_argument("--kind", required=True, choices=["grid", "icosphere", "tube", "catenoid"])
    p.add_argument("--n", type=int, help="grid resolution")
    p.add_argument("--level", type=int, help="icosphere subdivision level")
    p.add_argument("--R", type=float, help="radius")
    p.add_argument("--L", type=float, help="tube length")
    p.add_argument("--c", type=float, help="catenoid waist")
    p.add_argument("--n-u", dest="n_u", type=int, help="segments along the axis")
    p.add_argument("--n-v", dest="n_v", type=int, help="segments around the axis")
    p.add_argument("--output", required=True, help="OBJ/OFF destination path")
    p.set_defaults(handler=_cmd_make)

    p = sub.add_parser("flow", help="explicit mean-curvature-flow trace")
    p.add_argument("--input", required=True, help="closed OBJ/OFF mesh path")
    p.add_argument("--dt", type=float, required=True, help="time step")
    p.add_argument("--steps", type=int, required=True, help="maximum step count")
    p.add_argument("--final-mesh", help="optional path for the final mesh")
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_flow)

    return parser


_parser = functools.cache(build_parser)  # built on the first run, then reused


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (CurvintError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
