"""The four workloads: how each generates its inputs from the seed, the
CLI calls that make up one job, and the checks of a job's outputs
against `reference`.

A job is a fixed list of argv lists for `curvint.cli.run`. Every job of a
run is the same, so its outputs must be the same too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

JIGGLE = 0.05  # Gaussian noise, as a share of the mean edge length
TWO_PI = 2.0 * math.pi


@dataclass
class Job:
    """One job's calls, the output files they write (relative to the work
    directory), the work items one job completes, and what the checks
    need to know about the inputs."""

    calls: list[list[str]]
    outputs: list[str]
    items: int
    meta: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _jiggled(base, rng):
    sigma = JIGGLE * ref.mean_edge_length(base.positions, base.faces)
    return base.with_positions(base.positions + sigma * rng.standard_normal(base.positions.shape))


def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-300)


class Checks:
    """Collects failed checks and the worst relative error seen."""

    def __init__(self):
        self.failures: list[str] = []
        self.max_rel_err = 0.0

    def within(self, label: str, rel: float, tol: float):
        self.max_rel_err = max(self.max_rel_err, rel)
        if not rel <= tol:  # also catches nan
            self.failures.append(f"{label}: {rel:.3e} > {tol:.1e}")

    def require(self, label: str, ok: bool):
        if not ok:
            self.failures.append(label)


def flip_sign(text: str, row: int, cols) -> str:
    """Negate the given columns of one CSV row (row 0 is the header)."""
    lines = text.split("\n")
    cells = lines[row].split(",")
    for c in cols:
        cells[c] = repr(-float(cells[c]))
    lines[row] = ",".join(cells)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# analytic: the identity and the shrinking limit on parametric patches

# parameter boxes well inside each surface's domain: (u0, u1, v0, v1)
_BOXES = {
    "plane": (-2.0, 2.0, -2.0, 2.0),
    "sphere": (0.25, math.pi - 0.25, 0.0, TWO_PI),
    "cylinder": (-2.0, 2.0, 0.0, TWO_PI),
    "torus": (0.0, TWO_PI, 0.0, TWO_PI),
    "catenoid": (-1.8, 1.8, 0.0, TWO_PI),
    "enneper": (-1.4, 1.4, -1.4, 1.4),
    "saddle": (-1.8, 1.8, -1.8, 1.8),
}
_MINIMAL = {"plane", "catenoid", "enneper"}
_RADII = [0.2, 0.1, 0.05, 0.025]
_IDENTITY_TOL = 1e-8
_NULL_IDENTITY = 1e-3  # below this |lhs|, |rhs| a relative error means nothing


def _random_rect(rng, box):
    u0, u1, v0, v1 = box
    du = rng.uniform(0.3, min(1.2, u1 - u0))
    dv = rng.uniform(0.3, min(1.2, v1 - v0))
    a = rng.uniform(u0, u1 - du)
    b = rng.uniform(v0, v1 - dv)
    return ("rect", a, a + du, b, b + dv)


def _random_disk(rng, box):
    u0, u1, v0, v1 = box
    rho = rng.uniform(0.15, 0.5)
    return ("disk", rng.uniform(u0 + rho, u1 - rho), rng.uniform(v0 + rho, v1 - rho), rho)


def _region_flags(region) -> list[str]:
    if region[0] == "rect":
        _, u0, u1, v0, v1 = region
        return ["--region", "rect", "--u0", _num(u0), "--u1", _num(u1),
                "--v0", _num(v0), "--v1", _num(v1)]
    _, uc, vc, rho = region
    return ["--region", "disk", "--uc", _num(uc), "--vc", _num(vc), "--rho", _num(rho)]


class Analytic:
    name = "analytic"
    item = "identity or limit-radius evaluation"

    def setup(self, ci, rng, indir: Path) -> Job:
        cases = []
        for surface in _BOXES:
            for region in (_random_rect(rng, _BOXES[surface]), _random_disk(rng, _BOXES[surface])):
                cases.append({"kind": "verify", "surface": surface, "region": region,
                              "argv": ["verify", "--surface", surface] + _region_flags(region)})
        # the README's two verify examples, flags verbatim
        cases.append({"kind": "verify", "surface": "sphere", "cap": 1.0472,
                      "region": ("rect", 1e-6, 1.0472, 0.0, TWO_PI),
                      "argv": ["verify", "--surface", "sphere", "--R", "1", "--region", "cap",
                               "--theta0", "1.0472", "--quad-n", "16"]})
        cases.append({"kind": "verify", "surface": "torus", "region": ("rect", 0.3, 1.1, 0.2, 0.9),
                      "argv": ["verify", "--surface", "torus", "--R", "2", "--r", "0.5",
                               "--region", "rect", "--u0", "0.3", "--u1", "1.1", "--v0", "0.2",
                               "--v1", "0.9", "--max-rel-err", "1e-8"]})
        for surface, (lo, hi) in (("sphere", (0.6, math.pi - 0.6)), ("torus", (0.0, TWO_PI))):
            center = (rng.uniform(lo, hi), rng.uniform(0.0, TWO_PI))
            cases.append({"kind": "limit", "surface": surface, "center": center,
                          "argv": ["limit", "--surface", surface,
                                   "--center", f"{_num(center[0])},{_num(center[1])}",
                                   "--radii", ",".join(_num(r) for r in _RADII)]})
        outputs = []
        for k, case in enumerate(cases):
            case["out"] = f"out/{k:02d}_{case['kind']}_{case['surface']}.csv"
            outputs.append(case["out"])
        items = sum(1 if c["kind"] == "verify" else len(_RADII) for c in cases)
        calls = [c["argv"] + ["--output", c["out"]] for c in cases]
        return Job(calls, outputs, items, {"cases": cases})

    def reference(self, job: Job, indir: Path):
        return [ref.contour_length(c["surface"], c["region"])
                if c["kind"] == "verify" and c["surface"] in _MINIMAL else None
                for c in job.meta["cases"]]

    def check(self, job: Job, expected, outputs: dict, codes) -> Checks:
        chk = Checks()
        for case, length, code in zip(job.meta["cases"], expected, codes):
            label = case["out"]
            chk.require(f"{label}: exit code {code}", code == 0)
            if case["out"] not in outputs:
                chk.require(f"{label}: missing", False)
                continue
            rows = ref.read_csv(outputs[case["out"]])
            if case["kind"] == "verify":
                self._check_verify(chk, label, case, length, rows[0])
            else:
                self._check_limit(chk, label, case, rows)
        return chk

    def _check_verify(self, chk, label, case, length, row):
        lhs = np.array(row[2:5], dtype=float)
        rhs = np.array(row[5:8], dtype=float)
        size = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
        if case["surface"] in _MINIMAL:
            chk.within(f"{label}: |rhs| / contour length", np.linalg.norm(rhs) / length,
                       _IDENTITY_TOL)
        elif size >= _NULL_IDENTITY:
            chk.within(f"{label}: identity rel_err",
                       _rel(np.linalg.norm(lhs - rhs), size), _IDENTITY_TOL)
        if case["surface"] == "sphere" and case["region"][0] == "rect":
            exact = ref.sphere_rect_integral(1.0, *case["region"][1:])
            for side, value in (("lhs", lhs), ("rhs", rhs)):
                chk.within(f"{label}: {side} against the closed form",
                           _rel(np.linalg.norm(value - exact), np.linalg.norm(exact)),
                           _IDENTITY_TOL)

    def _check_limit(self, chk, label, case, rows):
        u, v = case["center"]
        target = (ref.sphere_mean_curvature_vector(1.0, u, v) if case["surface"] == "sphere"
                  else ref.torus_mean_curvature_vector(2.0, 0.5, u, v))
        chk.require(f"{label}: {len(rows)} rows", len(rows) == len(_RADII))
        if len(rows) != len(_RADII):
            return
        est = np.array([r[1:4] for r in rows], dtype=float)
        errors = np.linalg.norm(est - target, axis=1)
        reported = np.array([r[4] for r in rows], dtype=float)
        chk.within(f"{label}: err column",
                   float(np.max(np.abs(reported - errors) / errors)), 1e-6)
        chk.require(f"{label}: errors not decreasing {errors}", bool(np.all(np.diff(errors) < 0)))
        order = float(np.polyfit(np.log(_RADII), np.log(errors), 1)[0])
        chk.require(f"{label}: observed order {order:.2f} < 1", order >= 1.0)

    def corrupt(self, job: Job, outputs: dict) -> dict:
        cap = next(c["out"] for c in job.meta["cases"] if "cap" in c)
        return {**outputs, cap: flip_sign(outputs[cap], 1, [7])}


# ---------------------------------------------------------------------------
# mesh_curvature: per-vertex B and the Laplacian of a quadratic field


class MeshCurvature:
    name = "mesh_curvature"
    item = "vertex per curvature or laplacian call"
    meshes = (("ico", "ico3.off", lambda ci: ci.make_icosphere(3, 1.0)),
              ("cat", "cat.obj", lambda ci: ci.make_catenoid(1.0, 19, 32)))

    def setup(self, ci, rng, indir: Path) -> Job:
        calls, outputs, items = [], [], 0
        for tag, fname, make in self.meshes:
            mesh = _jiggled(make(ci), rng)
            ci.save_mesh(mesh, str(indir / fname))
            # f(x) = c + g.x + x.Q.x with seeded coefficients
            c, g, q = rng.standard_normal(), rng.standard_normal(3), rng.standard_normal((3, 3))
            x = mesh.positions
            values = c + x @ g + np.einsum("ij,jk,ik->i", x, q + q.T, x) / 2
            (indir / f"field_{tag}.csv").write_text(
                "vertex,value\n" + "".join(f"{v},{_num(f)}\n" for v, f in enumerate(values)))
            src, fld = f"in/{fname}", f"in/field_{tag}.csv"
            calls.append(["curvature", "--input", src, "--output", f"out/curv_{tag}.csv"])
            calls.append(["laplacian", "--input", src, "--field", fld,
                          "--output", f"out/lap_{tag}.csv"])
            outputs += [f"out/curv_{tag}.csv", f"out/lap_{tag}.csv"]
            items += 2 * mesh.n_vertices
        return Job(calls, outputs, items)

    def reference(self, job: Job, indir: Path):
        expected = {}
        for tag, fname, _ in self.meshes:
            text = (indir / fname).read_text()
            pos, faces = ref.read_off(text) if fname.endswith(".off") else ref.read_obj(text)
            rows = ref.read_csv((indir / f"field_{tag}.csv").read_text())
            f = np.array([r[1] for r in rows], dtype=float)
            b, scale, _ = ref.mesh_curvature(pos, faces)
            lap, lap_scale = ref.mesh_laplacian(pos, faces, f)
            expected[tag] = (b, scale, ref.boundary_mask(len(pos), faces), lap, lap_scale)
        return expected

    def check(self, job: Job, expected, outputs: dict, codes) -> Checks:
        chk = Checks()
        chk.require(f"exit codes {codes}", all(c == 0 for c in codes))
        for tag, _, _ in self.meshes:
            b, scale, boundary, lap, lap_scale = expected[tag]
            curv, lapl = outputs.get(f"out/curv_{tag}.csv"), outputs.get(f"out/lap_{tag}.csv")
            if curv is None or lapl is None:
                chk.require(f"{tag}: output missing", False)
                continue
            rows = ref.read_csv(curv)
            chk.require(f"{tag}: {len(rows)} curvature rows", len(rows) == len(b))
            if len(rows) != len(b):
                continue
            flagged = np.array([r[6] == "1" for r in rows])
            chk.require(f"{tag}: boundary rows differ", bool(np.all(flagged == boundary)))
            chk.require(f"{tag}: boundary rows carry numbers",
                        all(r[1:6] == [""] * 5 for r, f in zip(rows, flagged) if f))
            inner = ~boundary & ~flagged
            got = np.array([r[1:5] for r, i in zip(rows, inner) if i], dtype=float)
            err = np.linalg.norm(got[:, :3] - b[inner], axis=1) / scale[inner]
            chk.within(f"{tag}: B", float(err.max()), 1e-9)
            mag = np.linalg.norm(b[inner], axis=1)
            chk.within(f"{tag}: |B|", float(np.max(np.abs(got[:, 3] - mag) / scale[inner])), 1e-9)
            near = np.array([r[5] == "1" for r, i in zip(rows, inner) if i])
            chk.require(f"{tag}: near_minimal flags",
                        bool(np.all(near == (mag < 1e-8 * scale[inner]))))
            rows = ref.read_csv(lapl)
            vertices = np.array([int(r[0]) for r in rows])
            chk.require(f"{tag}: laplacian rows are not the interior vertices",
                        np.array_equal(vertices, np.flatnonzero(~boundary)))
            if np.array_equal(vertices, np.flatnonzero(~boundary)):
                got = np.array([r[1] for r in rows], dtype=float)
                chk.within(f"{tag}: L", float(np.max(np.abs(got - lap[vertices])
                                                      / lap_scale[vertices])), 1e-9)
        return chk

    def corrupt(self, job: Job, outputs: dict) -> dict:
        name = "out/curv_ico.csv"
        return {**outputs, name: flip_sign(outputs[name], 1, [1, 2, 3])}


# ---------------------------------------------------------------------------
# mesh_flow: explicit mean-curvature flow of a large closed mesh


class MeshFlow:
    name = "mesh_flow"
    item = "vertex-step"
    dt, steps = 1e-4, 10

    def setup(self, ci, rng, indir: Path) -> Job:
        mesh = _jiggled(ci.make_icosphere(5, 1.0), rng)
        ci.save_mesh(mesh, str(indir / "ico5.off"))
        calls = [["flow", "--input", "in/ico5.off", "--dt", _num(self.dt),
                  "--steps", str(self.steps), "--final-mesh", "out/final.off",
                  "--output", "out/flow.csv"]]
        return Job(calls, ["out/flow.csv", "out/final.off"], mesh.n_vertices * self.steps)

    def reference(self, job: Job, indir: Path):
        pos, faces = ref.read_off((indir / "ico5.off").read_text())
        rows, final = ref.flow_states(pos, faces, self.dt, self.steps)
        return rows, final, faces

    def check(self, job: Job, expected, outputs: dict, codes) -> Checks:
        chk = Checks()
        rows_ref, final_ref, faces = expected
        chk.require(f"exit code {codes}", codes == [0])
        if "out/flow.csv" not in outputs or "out/final.off" not in outputs:
            chk.require("output missing", False)
            return chk
        rows = ref.read_csv(outputs["out/flow.csv"])
        chk.require(f"trace stops at step {rows[-1][0] if rows else None}",
                    [r[0] for r in rows] == [str(k) for k in range(self.steps + 1)])
        if len(rows) != self.steps + 1:
            return chk
        trace = np.array([r[1:4] for r in rows], dtype=float)
        chk.require("area does not strictly decrease", bool(np.all(np.diff(trace[:, 0]) < 0)))
        for col, label in enumerate(("area", "max_B", "min_tri_area")):
            chk.within(f"trace {label}", float(np.max(np.abs(trace[:, col] - rows_ref[:, col])
                                                      / rows_ref[:, col])), 1e-9)
        pos, final_faces = ref.read_off(outputs["out/final.off"])
        chk.require("final mesh connectivity", np.array_equal(final_faces, faces))
        if pos.shape == final_ref.shape:
            chk.within("final positions", float(np.abs(pos - final_ref).max()), 1e-9)
        area = float(ref.face_areas(pos, final_faces).sum())
        chk.within("final mesh area against the last trace row",
                   abs(area - trace[-1, 0]) / trace[-1, 0], 1e-12)
        return chk

    def corrupt(self, job: Job, outputs: dict) -> dict:
        last = self.steps + 1
        return {**outputs, "out/flow.csv": flip_sign(outputs["out/flow.csv"], last, [2])}


# ---------------------------------------------------------------------------
# mesh_gradcheck: area gradient against the finite-difference oracle


class MeshGradcheck:
    name = "mesh_gradcheck"
    item = "vertex"
    tol = 1e-6

    def setup(self, ci, rng, indir: Path) -> Job:
        mesh = _jiggled(ci.make_icosphere(2, 1.0), rng)
        ci.save_mesh(mesh, str(indir / "ico2.off"))
        calls = [["gradcheck", "--input", "in/ico2.off", "--max-rel-err", _num(self.tol),
                  "--output", "out/grad.csv"]]
        return Job(calls, ["out/grad.csv"], mesh.n_vertices)

    def reference(self, job: Job, indir: Path):
        pos, faces = ref.read_off((indir / "ico2.off").read_text())
        return ref.area_gradient(pos, faces)

    def check(self, job: Job, expected, outputs: dict, codes) -> Checks:
        chk = Checks()
        chk.require(f"exit code {codes}", codes == [0])
        if "out/grad.csv" not in outputs:
            chk.require("output missing", False)
            return chk
        rows = ref.read_csv(outputs["out/grad.csv"])
        chk.require(f"{len(rows)} rows", len(rows) == len(expected))
        if len(rows) != len(expected):
            return chk
        table = np.array(rows, dtype=float)
        scale = np.linalg.norm(expected, axis=1)
        chk.within("analytic gradient",
                   float(np.max(np.linalg.norm(table[:, 1:4] - expected, axis=1) / scale)), 1e-9)
        chk.within("finite-difference gradient",
                   float(np.max(np.linalg.norm(table[:, 4:7] - expected, axis=1) / scale)),
                   self.tol)
        chk.within("worst rel_err column", float(table[:, 7].max()), self.tol)
        return chk

    def corrupt(self, job: Job, outputs: dict) -> dict:
        return {**outputs, "out/grad.csv": flip_sign(outputs["out/grad.csv"], 1, [1, 2, 3])}


WORKLOADS = {w.name: w for w in (Analytic(), MeshCurvature(), MeshFlow(), MeshGradcheck())}
