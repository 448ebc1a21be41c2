"""Command-line interface.

Subcommands: verify (patch/contour identity report), limit (shrinking-disk
study), curvature (per-vertex B), gradcheck (area gradient against the
finite-difference oracle), laplacian (per-vertex field Laplacian), make
(primitive generation) and flow (mean-curvature-flow trace).

Exit codes: 0 success, 1 bad input or usage, 2 a requested check exceeded
its tolerance. All numeric output is printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import contour, discrete, flow as flow_mod, mesh as mesh_mod
from .errors import CurvintError, EvaluationError
from .numerics import gauss_legendre
from .surfaces import surface_from_name

__all__ = ["build_parser", "run", "main"]

_CAP_POLE_MARGIN = 1e-6


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _surface_from_args(args) -> object:
    params = {}
    for key in ("R", "r", "c"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return surface_from_name(args.surface, **params)


def _region_from_args(args, surface) -> object:
    if args.region == "rect":
        need = [args.u0, args.u1, args.v0, args.v1]
        if any(x is None for x in need):
            raise ValueError("rect region needs --u0 --u1 --v0 --v1")
        return contour.RectRegion(args.u0, args.u1, args.v0, args.v1)
    if args.region == "disk":
        need = [args.uc, args.vc, args.rho]
        if any(x is None for x in need):
            raise ValueError("disk region needs --uc --vc --rho")
        return contour.DiskRegion(args.uc, args.vc, args.rho)
    if args.region == "cap":
        if args.theta0 is None:
            raise ValueError("cap region needs --theta0")
        if surface.name != "sphere":
            raise ValueError("cap regions are defined on the sphere only")
        return contour.RectRegion(_CAP_POLE_MARGIN, args.theta0, 0.0, 2.0 * math.pi)
    raise ValueError(f"unknown region '{args.region}'")


def _rule_from_args(args):
    return gauss_legendre(args.quad_n, panels=args.quad_panels)


def _read_field(path: str, n_vertices: int) -> np.ndarray:
    values = [None] * n_vertices
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'vertex,value'")
        if lineno == 1 and not parts[0].lstrip("-").isdigit():
            continue  # header row
        try:
            v = int(parts[0])
            x = float(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'vertex,value'") from None
        if not 0 <= v < n_vertices:
            raise ValueError(f"{path}:{lineno}: vertex {v} out of range")
        if not math.isfinite(x):
            raise ValueError(f"{path}:{lineno}: value must be finite")
        if values[v] is not None:
            raise ValueError(f"{path}:{lineno}: vertex {v} given twice")
        values[v] = x
    if None in values:
        raise ValueError(f"{path}: no value for vertex {values.index(None)}")
    return np.array(values)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args) -> int:
    surface = _surface_from_args(args)
    region = _region_from_args(args, surface)
    report = contour.verify_identity(surface, region, _rule_from_args(args))
    lines = ["surface,region,lhs_x,lhs_y,lhs_z,rhs_x,rhs_y,rhs_z,abs_err,rel_err,area"]
    lines.append(",".join(
        [surface.name, region.label]
        + [_fmt(x) for x in report.lhs] + [_fmt(x) for x in report.rhs]
        + [_fmt(report.abs_err), _fmt(report.rel_err), _fmt(report.area)]))
    _emit(lines, args.output)
    if args.max_rel_err is not None and report.rel_err > args.max_rel_err:
        print(f"verification failed: rel_err {report.rel_err:.3e} exceeds "
              f"{args.max_rel_err:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_limit(args) -> int:
    surface = _surface_from_args(args)
    center = tuple(float(t) for t in args.center.split(","))
    if len(center) != 2:
        raise ValueError("--center must be 'u,v'")
    radii = [float(t) for t in args.radii.split(",") if t]
    study = contour.shrinking_limit(surface, center, radii, _rule_from_args(args))
    lines = ["radius,est_x,est_y,est_z,err,observed_order"]
    for i, rho in enumerate(study.radii):
        last = i == len(study.radii) - 1
        lines.append(",".join(
            [_fmt(rho)] + [_fmt(x) for x in study.estimates[i]]
            + [_fmt(study.errors[i]), _fmt(study.observed_order) if last else ""]))
    _emit(lines, args.output)
    return 0


def _cmd_curvature(args) -> int:
    m = mesh_mod.load_mesh(args.input)
    samples = discrete.curvature_field(m, tol_direction=args.tol_direction)
    lines = ["vertex,Bx,By,Bz,magnitude,near_minimal,boundary"]
    for v, sample in enumerate(samples):
        if sample is None:
            lines.append(f"{v},,,,,,1")
        else:
            b = sample.vector
            lines.append(",".join([str(v), _fmt(b[0]), _fmt(b[1]), _fmt(b[2]),
                                   _fmt(sample.magnitude),
                                   "1" if sample.near_minimal else "0", "0"]))
    _emit(lines, args.output)
    return 0


def _cmd_gradcheck(args) -> int:
    m = mesh_mod.load_mesh(args.input)
    fd = discrete.fd_area_gradient(m, args.h)
    lines = ["vertex,analytic_x,analytic_y,analytic_z,fd_x,fd_y,fd_z,rel_err"]
    worst = 0.0
    # floor of the relative error's denominator: where the gradient
    # vanishes (area-critical vertices) both sides are roundoff of the
    # star's terms, whose scale is sum(a_i) / 2
    floor = 1e-8 * 0.5 * m.corner_kernel().edge_lengths
    for v in range(m.n_vertices):
        analytic = discrete.area_gradient(m, v)
        rel = float(np.linalg.norm(analytic - fd[v])) / max(
            float(np.linalg.norm(analytic)), float(np.linalg.norm(fd[v])), float(floor[v]), 1e-30)
        worst = max(worst, rel)
        lines.append(",".join([str(v)] + [_fmt(x) for x in analytic]
                              + [_fmt(x) for x in fd[v]] + [_fmt(rel)]))
    _emit(lines, args.output)
    if args.max_rel_err is not None and worst > args.max_rel_err:
        print(f"gradient check failed: worst rel_err {worst:.3e} exceeds "
              f"{args.max_rel_err:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_laplacian(args) -> int:
    m = mesh_mod.load_mesh(args.input)
    isolated = np.bincount(m.faces.ravel(), minlength=m.n_vertices) == 0
    if isolated.any():
        mesh_mod.star_corners(m, int(np.argmax(isolated)))  # raises IsolatedVertexError
    values = _read_field(args.field, m.n_vertices)
    lap = discrete.laplacian_field(m, values)
    interior = np.flatnonzero(~m.boundary_vertices())
    bad = interior[~np.isfinite(lap[interior])]
    if len(bad):
        raise EvaluationError("Laplacian is not finite", where=f"vertex {bad[0]}")
    lines = ["vertex,L"] + [f"{v},{_fmt(lap[v])}" for v in interior]
    _emit(lines, args.output)
    return 0


def _cmd_make(args) -> int:
    params = {}
    for key in ("n", "level", "R", "L", "c", "n_u", "n_v"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    m = mesh_mod.make_primitive(args.kind, **params)
    mesh_mod.save_mesh(m, args.output)
    return 0


def _cmd_flow(args) -> int:
    m = mesh_mod.load_mesh(args.input)
    trace, final = flow_mod.run_flow(m, args.dt, args.steps)
    lines = ["step,area,max_B,min_tri_area"]
    for s in trace.steps:
        lines.append(",".join([str(s.index), _fmt(s.area), _fmt(s.max_curvature),
                               _fmt(s.min_face_area)]))
    _emit(lines, args.output)
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
                   help="relative threshold below which the direction is withheld")
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


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
