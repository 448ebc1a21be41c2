"""Command-line interface.

Subcommands: verify (patch/contour identity report), limit (shrinking-disk
study), curvature (per-vertex B), gradcheck (area gradient against the
complex-step oracle), laplacian (per-vertex field Laplacian), make
(primitive generation) and flow (mean-curvature-flow trace).

Exit codes: 0 success, 1 bad input or usage, 2 a requested check exceeded
its tolerance: run, the one --max-rel-err check, refuses a bound below 0
or not finite first, then compares the relative error that the verify
or gradcheck handler returns. Numbers print as "%.17g", indices as "%d".
Every table is written by the array kernel of `curvint._text` but
verify's one-row report, one %-format: microseconds against the kernel's
fixed cost of about a hundred numpy calls per block of rows, some 0.1 ms.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import _text, contour, discrete, flow as flow_mod, mesh as mesh_mod
from .errors import CurvintError
from .numerics import checked_kind, checked_real, default_rule, gauss_legendre
from .surfaces import surface_from_name

__all__ = ["build_parser", "run", "main"]

_CAP_POLE_MARGIN = 1e-6


def _emit(output, header: str, text: str) -> None:
    """Write a CSV table to output, a path or an open file (default
    stdout): the header line, then text, the lines of the rows."""
    text = header + "\n" + text
    if isinstance(output, str) and output:
        Path(output).write_text(text)
    else:
        (output or sys.stdout).write(text)


def _given(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _cap(theta0) -> contour.RectRegion:
    theta0 = checked_real(theta0, "cap colatitude", _CAP_POLE_MARGIN, strict=True)
    return contour.RectRegion(_CAP_POLE_MARGIN, theta0, 0.0, 2.0 * math.pi)


# --region -> its builder and the flags it needs, in order
_REGIONS = {"rect": (contour.RectRegion, dict.fromkeys(("u0", "u1", "v0", "v1"))),
            "disk": (contour.DiskRegion, dict.fromkeys(("uc", "vc", "rho"))),
            "cap": (_cap, {"theta0": None})}


def _region_from_args(args, surface) -> object:
    """Refuses a flag the region does not take, one it lacks, a cap off the sphere, a value."""
    given = _given(args, [flag for _, flags in _REGIONS.values() for flag in flags])
    make, arguments = checked_kind(_REGIONS, "region", args.region, given)
    if None in arguments.values():
        raise ValueError(f"{args.region} region needs {' '.join('--' + f for f in arguments)}")
    if make is _cap and surface.name != "sphere":
        raise ValueError("cap regions are defined on the sphere only")
    return make(*arguments.values())


def _floats(flag: str, tokens) -> list[float]:
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


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


def _cmd_verify(args) -> float:
    surface = surface_from_name(args.surface, **_given(args, ("R", "r", "c")))
    region = _region_from_args(args, surface)
    report = contour.verify_identity(surface, region,
                                     gauss_legendre(args.quad_n, panels=args.quad_panels))
    _emit(args.output, "surface,region,lhs_x,lhs_y,lhs_z,rhs_x,rhs_y,rhs_z,abs_err,rel_err,area",
          ("%s,%s" + ",%.17g" * 9 + "\n") % (surface.name, region.label, *report.lhs, *report.rhs,
                                             report.abs_err, report.rel_err, report.area))
    return report.rel_err


def _cmd_limit(args) -> None:
    surface = surface_from_name(args.surface, **_given(args, ("R", "r", "c")))
    center = _floats("--center", args.center.split(","))
    radii = _floats("--radii", args.radii.split(","))
    study = contour.shrinking_limit(surface, center, radii,
                                    gauss_legendre(args.quad_n, panels=args.quad_panels))
    rows = len(study.radii)
    # the observed order prints on the last row only
    blank = np.outer(np.arange(rows) < rows - 1, [False] * 5 + [True])
    _emit(args.output, "radius,est_x,est_y,est_z,err,observed_order",
          _text.render([study.radii, *study.estimates.T, study.errors,
                        np.full(rows, study.observed_order)], blank=blank))


def _cmd_curvature(args) -> None:
    m = mesh_mod.load_mesh(args.input)
    vec, magnitude, near_minimal, boundary = discrete.curvature_arrays(m, args.tol_direction)
    # a boundary row prints its vertex index and boundary flag only
    blank = np.outer(boundary, [False] + [True] * 5 + [False])
    _emit(args.output, "vertex,Bx,By,Bz,magnitude,near_minimal,boundary",
          _text.render([np.arange(m.n_vertices), *vec.T, magnitude, near_minimal, boundary],
                       blank=blank))


def _cmd_gradcheck(args) -> float:
    m = mesh_mod.load_mesh(args.input)
    oracle = discrete.complex_step_area_gradient(m)
    kernel = m.corner_kernel()
    # area_gradient at every vertex; 0.0 - x: a vanishing sum gives +0.0
    analytic = 0.0 - 0.5 * kernel.star_sums
    # floor of the relative error's denominator: where the gradient
    # vanishes (area-critical vertices) both sides are roundoff of the
    # star's terms, whose scale is sum(a_i) / 2
    floor = 1e-8 * 0.5 * kernel.edge_lengths
    norms = discrete.row_norms
    rel = norms(analytic - oracle) / np.maximum.reduce(
        [norms(analytic), norms(oracle), floor, np.full_like(floor, 1e-30)])
    _emit(args.output, "vertex,analytic_x,analytic_y,analytic_z,fd_x,fd_y,fd_z,rel_err",
          _text.render([np.arange(m.n_vertices), *analytic.T, *oracle.T, rel]))
    return float(rel.max(initial=0.0))


def _cmd_laplacian(args) -> None:
    m = mesh_mod.load_mesh(args.input)
    interior = np.flatnonzero(~m.topology.check())
    lap = discrete.laplacian_field(m, _read_field(args.field, m.n_vertices))
    _emit(args.output, "vertex,L",
          _text.render([interior, discrete.finite_laplacian(lap, interior)]))


def _cmd_make(args) -> None:
    m = mesh_mod.make_primitive(
        args.kind, **_given(args, ("n", "level", "R", "L", "c", "n_u", "n_v")))
    mesh_mod.save_mesh(m, args.output)


def _cmd_flow(args) -> None:
    # two destinations that are one file, a destination of unknown format,
    # the input and the flow's arguments are refused before any file is
    # opened; a destination that cannot be opened, before any step runs
    if args.output and args.final_mesh and (
            os.path.realpath(args.output) == os.path.realpath(args.final_mesh)):
        raise ValueError(f"--output and --final-mesh name the same file: '{args.final_mesh}'")
    fmt = args.final_mesh and mesh_mod.infer_format(args.final_mesh, None)
    m = mesh_mod.load_mesh(args.input)
    flow_mod.check_flow(m, args.dt, args.steps)
    with contextlib.ExitStack() as files:
        final_file = args.final_mesh and files.enter_context(open(args.final_mesh, "w"))
        out = args.output and files.enter_context(open(args.output, "w"))
        trace, final = flow_mod.run_flow(m, args.dt, args.steps)
        columns = zip(*[(s.index, s.area, s.max_curvature, s.min_face_area) for s in trace.steps])
        _emit(out, "step,area,max_B,min_tri_area", _text.render([np.array(c) for c in columns]))
        if trace.stop_reason:
            print(f"stopped early: {trace.stop_reason}", file=sys.stderr)
        if final_file:
            mesh_mod.save_mesh(final, final_file, fmt)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvint",
        description="Contour-integral mean curvature: analytic verification "
                    "and discrete mesh operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags that several subcommands share, each defined once
    sizes, surface, quad, mesh_in, csv_out, bound = (argparse.ArgumentParser(add_help=False)
                                                     for _ in range(6))
    sizes.add_argument("--R", type=float, help="radius (sphere/cylinder/torus major/icosphere/tube)")
    sizes.add_argument("--c", type=float, help="catenoid waist")
    surface.add_argument("--surface", required=True,
                         help="plane, sphere, cylinder, torus, catenoid, enneper or saddle")
    surface.add_argument("--r", type=float, help="torus minor radius")
    rule = default_rule()
    quad.add_argument("--quad-n", type=int, default=len(rule.nodes),
                      help="Gauss-Legendre nodes per panel")
    quad.add_argument("--quad-panels", type=int, default=rule.panels, help="panels per interval/edge")
    mesh_in.add_argument("--input", required=True, help="OBJ/OFF mesh path")
    csv_out.add_argument("--output", help="CSV destination (default: stdout)")
    bound.add_argument("--max-rel-err", type=float,
                       help="exit 2 when rel_err (gradcheck: any vertex's) exceeds this bound")

    p = sub.add_parser("verify", parents=[surface, sizes, quad, bound, csv_out],
                       help="evaluate both sides of the patch/contour identity")
    p.add_argument("--region", required=True, choices=["rect", "disk", "cap"])
    for flag in ("--u0", "--u1", "--v0", "--v1", "--uc", "--vc", "--rho"):
        p.add_argument(flag, type=float)
    p.add_argument("--theta0", type=float, help="cap colatitude (sphere)")
    p.set_defaults(handler=_cmd_verify, failure="verification failed: rel_err")

    p = sub.add_parser("limit", parents=[surface, sizes, quad, csv_out],
                       help="shrinking-disk limit study at a point")
    p.add_argument("--center", required=True, help="'u,v' disk center")
    p.add_argument("--radii", default="0.2,0.1,0.05,0.025",
                   help="comma-separated decreasing radii")
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("curvature", parents=[mesh_in, csv_out],
                       help="per-vertex discrete vector mean curvature")
    p.add_argument("--tol-direction", type=float, default=1e-8,
                   help="relative threshold at or below which the direction is withheld")
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("gradcheck", parents=[mesh_in, bound, csv_out],
                       help="area gradient vs complex-step oracle, per vertex")
    p.set_defaults(handler=_cmd_gradcheck, failure="gradient check failed: worst rel_err")

    p = sub.add_parser("laplacian", parents=[mesh_in, csv_out],
                       help="per-vertex surface Laplacian of a field")
    p.add_argument("--field", required=True, help="CSV 'vertex,value' field file")
    p.set_defaults(handler=_cmd_laplacian)

    p = sub.add_parser("make", parents=[sizes], help="generate a mesh primitive")
    p.add_argument("--kind", required=True, choices=["grid", "icosphere", "tube", "catenoid"])
    p.add_argument("--n", type=int, help="grid resolution")
    p.add_argument("--level", type=int, help="icosphere subdivision level")
    p.add_argument("--L", type=float, help="tube length")
    p.add_argument("--n-u", dest="n_u", type=int, help="segments along the axis")
    p.add_argument("--n-v", dest="n_v", type=int, help="segments around the axis")
    p.add_argument("--output", required=True, help="OBJ/OFF destination path")
    p.set_defaults(handler=_cmd_make)

    p = sub.add_parser("flow", parents=[csv_out], help="explicit mean-curvature-flow trace")
    p.add_argument("--input", required=True, help="closed OBJ/OFF mesh path")
    p.add_argument("--dt", type=float, required=True, help="time step")
    p.add_argument("--steps", type=int, required=True, help="maximum step count")
    p.add_argument("--final-mesh", help="optional path for the final mesh")
    p.set_defaults(handler=_cmd_flow)

    for p in sub.choices.values():
        # a value such as -1e-3 or -0.5,0.3: argparse's private test takes
        # only -1 and -0.5 for numbers, any other "-<digit>" for a flag
        p._negative_number_matcher = re.compile(r"-\.?\d")
        # options are spelled in full: argparse would otherwise read a
        # prefix such as --h as --help
        p.allow_abbrev = False
    return parser


_parser = functools.cache(build_parser)  # built on the first run, then reused


def run(argv=None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code == 0 else 1
    bound = getattr(args, "max_rel_err", None)  # verify and gradcheck
    try:
        if bound is not None:
            checked_real(bound, "--max-rel-err", 0.0)
        err = args.handler(args)
    except (CurvintError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if bound is not None and err > bound:
        print(f"{args.failure} {err:.3e} exceeds {bound:.3e}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
