"""Shared helpers for the test suite: stock meshes, perturbed-mesh
factories, parameter-domain sampling boxes, malformed-file fixtures, and
the per-vertex loops (one-ring, area gradient, Laplacian) kept as
references for the whole-mesh results that replaced them, the per-face
sums (star sums, ring areas, Laplacian field) kept as references for the
corner kernel's, and the per-segment contour and per-region interior
quadrature kept as references for the region pieces and one-pass
integrals of `curvint.contour`."""

from __future__ import annotations

import math

import numpy as np

import curvint as ci
from curvint import (BoundaryVertexError, ContourError, IsolatedVertexError,
                     MeshValidationError)
from curvint.mesh import MIN_FACE_AREA


def interior_vertices(mesh: ci.TriMesh) -> np.ndarray:
    return np.flatnonzero(~mesh.boundary_vertices())


def bundled_meshes() -> list[tuple[str, ci.TriMesh]]:
    """Mix of open and closed stock meshes."""
    return [
        ("grid8", ci.make_grid(8)),
        ("icosphere2", ci.make_icosphere(2, 1.0)),
        ("tube", ci.make_tube(1.0, 2.0, 4, 12)),
        ("catenoid", ci.make_catenoid(1.0, 4, 12)),
    ]


def perturbed_meshes(count: int = 20, scale: float = 0.02) -> list[ci.TriMesh]:
    """Deterministic family of randomly jiggled meshes (open and closed)."""
    bases = [
        lambda: ci.make_grid(5),
        lambda: ci.make_grid(7),
        lambda: ci.make_icosphere(1, 1.0),
        lambda: ci.make_tube(1.0, 2.0, 4, 10),
        lambda: ci.make_catenoid(1.0, 4, 10),
    ]
    out = []
    for k in range(count):
        base = bases[k % len(bases)]()
        rng = np.random.default_rng(1000 + k)
        jiggle = scale * rng.standard_normal(base.positions.shape)
        out.append(base.with_positions(base.positions + jiggle))
    return out


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def sample_box(surface: ci.ParametricSurface) -> tuple[float, float, float, float]:
    """A parameter box comfortably inside the admissible domain, used to
    draw random interior points and regions."""
    boxes = {
        "plane": (-2.0, 2.0, -2.0, 2.0),
        "sphere": (0.25, np.pi - 0.25, 0.0, 2.0 * np.pi),
        "cylinder": (-2.0, 2.0, 0.0, 2.0 * np.pi),
        "torus": (0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi),
        "catenoid": (-1.8, 1.8, 0.0, 2.0 * np.pi),
        "enneper": (-1.4, 1.4, -1.4, 1.4),
        "saddle": (-1.8, 1.8, -1.8, 1.8),
        "monge": (-1.0, 1.0, -1.0, 1.0),
    }
    return boxes[surface.name]


def random_interior_points(surface, rng, count):
    u0, u1, v0, v1 = sample_box(surface)
    return rng.uniform(u0, u1, count), rng.uniform(v0, v1, count)


def random_rect(surface, rng, max_extent: float = 1.2) -> ci.RectRegion:
    u0, u1, v0, v1 = sample_box(surface)
    du = rng.uniform(0.3, min(max_extent, u1 - u0))
    dv = rng.uniform(0.3, min(max_extent, v1 - v0))
    a = rng.uniform(u0, u1 - du)
    b = rng.uniform(v0, v1 - dv)
    return ci.RectRegion(a, a + du, b, b + dv)


def random_disk(surface, rng, max_rho: float = 0.5) -> ci.DiskRegion:
    u0, u1, v0, v1 = sample_box(surface)
    rho = rng.uniform(0.15, max_rho)
    uc = rng.uniform(u0 + rho, u1 - rho)
    vc = rng.uniform(v0 + rho, v1 - rho)
    return ci.DiskRegion(uc, vc, rho)


# (label, format, text, 1-based line of the defect)
MALFORMED_FIXTURES = [
    ("obj_vertex_short", "obj", "v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n", 2),
    ("obj_vertex_nonnumeric", "obj", "v 0 0 zero\n", 1),
    ("obj_face_short", "obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", 4),
    ("obj_face_nonint", "obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", 4),
    ("obj_face_zero_index", "obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", 4),
    ("off_missing_header", "off", "3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 1),
    ("off_counts_short", "off", "OFF\n3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 2),
    ("off_counts_nonnumeric", "off", "OFF\n3 one 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 2),
    ("off_truncated", "off", "OFF\n3 1 0\n0 0 0\n1 0 0\n", 5),
    ("off_vertex_short", "off", "OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", 4),
    ("off_face_arity", "off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", 6),
    ("off_polygon_too_small", "off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n", 6),
]


# (label, format, text, 1-based line and index of the first invalid face,
# and what is wrong with it)
FACE_ERROR_FIXTURES = [
    ("obj_after_quad", "obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n# quad\nf 1 2 3 5\n", 6, 2,
     "references a missing vertex"),
    ("obj_before_vertices", "obj", "f 1 2 3\nf 2 3 4\nv 0 0 0\nv 1 0 0\nv 0 1 0\n", 2, 1,
     "references a missing vertex"),
    ("obj_repeated", "obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 2\n", 5, 1,
     "repeats a vertex"),
    ("off_negative", "off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2 -1\n", 7, 1,
     "references a missing vertex"),
    ("off_in_polygon", "off", "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n\n4 0 1 2 4\n", 8, 1,
     "references a missing vertex"),
    ("off_degenerate", "off", "OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n", 6, 0,
     "is degenerate (area 0.000e+00)"),
]

# ---------------------------------------------------------------------------
# reference one-ring: one vertex at a time, one incident face at a time


def reference_opposite_edges_close(edges: list[tuple[int, int]]) -> bool:
    # single closed loop <=> every ring vertex has degree 2 and the edge
    # graph is connected with as many edges as vertices
    adjacency: dict[int, list[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    if len(edges) != len(adjacency):
        return False
    if any(len(nbrs) != 2 for nbrs in adjacency.values()):
        return False
    start = edges[0][0]
    seen = {start}
    prev, cur = None, start
    while True:
        nxt = [p for p in adjacency[cur] if p != prev]
        if not nxt:
            return False
        prev, cur = cur, nxt[0]
        if cur == start:
            break
        if cur in seen:
            return False
        seen.add(cur)
    return len(seen) == len(adjacency)


def reference_boundary_vertices(mesh: ci.TriMesh) -> np.ndarray:
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    if len(mesh.faces):
        e = np.concatenate([mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]],
                            mesh.faces[:, [2, 0]]])
        e = np.sort(e, axis=1)
        _, idx, counts = np.unique(e, axis=0, return_index=True, return_counts=True)
        mask[e[idx[counts == 1]].ravel()] = True
    return mask


def reference_build_star(mesh: ci.TriMesh, v: int) -> ci.VertexStar:
    if not 0 <= v < mesh.n_vertices:
        raise MeshValidationError(f"vertex {v} out of range")
    incident = np.flatnonzero((mesh.faces == v).any(axis=1))
    if len(incident) == 0:
        raise IsolatedVertexError(f"vertex {v} has no incident faces")
    o = mesh.positions[v]
    entries = []
    edges = []
    for fi in incident:
        tri = mesh.faces[fi]
        corner = int(np.argmax(tri == v))
        p_idx, q_idx = int(tri[(corner + 1) % 3]), int(tri[(corner + 2) % 3])
        p, q = mesh.positions[p_idx], mesh.positions[q_idx]
        m = np.cross(p - o, q - o)
        area = 0.5 * float(np.linalg.norm(m))
        if area < MIN_FACE_AREA:
            raise MeshValidationError(f"face {fi} incident to vertex {v} is degenerate",
                                      face=int(fi))
        e = q - p
        edge_length = float(np.linalg.norm(e))
        n = np.cross(e, m)
        n /= np.linalg.norm(n)
        entries.append(ci.StarEntry(int(fi), area, (p_idx, q_idx), edge_length, n))
        edges.append((p_idx, q_idx))
    return ci.VertexStar(v, tuple(entries), not reference_opposite_edges_close(edges))


def _ring_sums(star: ci.VertexStar) -> tuple[float, float]:
    # left to right, as `sum` added floats before Python 3.12
    ring_area = total_edge_length = 0.0
    for e in star.entries:
        ring_area += e.area
        total_edge_length += e.edge_length
    return ring_area, total_edge_length


def reference_star_sum(mesh: ci.TriMesh, v: int) -> np.ndarray:
    out = np.zeros(3)
    for e in reference_build_star(mesh, v).entries:
        out += e.edge_length * e.normal
    return out


def reference_vector_mean_curvature(mesh: ci.TriMesh, v: int, tol_direction: float = 1e-8,
                                    allow_boundary: bool = False) -> ci.CurvatureSample:
    star = reference_build_star(mesh, v)
    if star.is_boundary and not allow_boundary:
        raise BoundaryVertexError(f"vertex {v} lies on the mesh boundary")
    num = np.zeros(3)
    for e in star.entries:
        num += e.edge_length * e.normal
    ring_area, total_edge_length = _ring_sums(star)
    vec = num / ring_area
    magnitude = float(np.linalg.norm(vec))
    scale = total_edge_length / ring_area
    if magnitude < tol_direction * scale:
        return ci.CurvatureSample(vec, magnitude, None, True)
    return ci.CurvatureSample(vec, magnitude, vec / magnitude, False)


def reference_curvature_field(mesh: ci.TriMesh, tol_direction: float = 1e-8):
    boundary = reference_boundary_vertices(mesh)
    return [None if boundary[v] else reference_vector_mean_curvature(mesh, v, tol_direction)
            for v in range(mesh.n_vertices)]


def reference_area_gradient(mesh: ci.TriMesh, v: int) -> np.ndarray:
    if not 0 <= v < mesh.n_vertices:
        raise MeshValidationError(f"vertex {v} out of range")
    o = mesh.positions[v]
    grad = np.zeros(3)
    for fi in np.flatnonzero((mesh.faces == v).any(axis=1)):
        tri = mesh.faces[fi]
        corner = int(np.argmax(tri == v))
        p = mesh.positions[tri[(corner + 1) % 3]]
        q = mesh.positions[tri[(corner + 2) % 3]]
        m = np.cross(p - o, q - o)
        grad -= np.cross(q - p, m) / (2.0 * np.linalg.norm(m))
    return grad


def reference_laplacian(mesh: ci.TriMesh, v: int, values) -> float:
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError(
            f"field must have one value per vertex ({mesh.n_vertices}), got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    star = reference_build_star(mesh, v)
    if star.is_boundary:
        raise BoundaryVertexError(f"vertex {v} lies on the mesh boundary")
    o = mesh.positions[v]
    fo = values[v]
    num = 0.0
    for e in star.entries:
        p_idx, q_idx = e.opposite
        p, q = mesh.positions[p_idx], mesh.positions[q_idx]
        m = np.cross(p - o, q - o)
        norm_m = float(np.linalg.norm(m))
        mhat = m / norm_m
        # gradient of the linear interpolant: sum of values times hat
        # function gradients (mhat x opposite_edge) / |m|
        g = (fo * np.cross(mhat, q - p)
             + values[p_idx] * np.cross(mhat, o - q)
             + values[q_idx] * np.cross(mhat, p - o)) / norm_m
        num += e.edge_length * float(g @ e.normal)
    return num / _ring_sums(star)[0]


# ---------------------------------------------------------------------------
# reference whole-mesh sums: the per-face passes that served the flow and
# laplacian_field before every sum went through one corner kernel


def _reference_corner_contributions(mesh: ci.TriMesh):
    p0, p1, p2 = mesh.corners()
    m = np.cross(p1 - p0, p2 - p0)
    norm_m = np.linalg.norm(m, axis=1, keepdims=True)
    return (p0, p1, p2), m, norm_m


def reference_star_sums(mesh: ci.TriMesh) -> np.ndarray:
    corners, m, norm_m = _reference_corner_contributions(mesh)
    out = np.zeros((mesh.n_vertices, 3))
    for c, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
        e = corners[j] - corners[i]
        np.add.at(out, mesh.faces[:, c], np.cross(e, m) / norm_m)
    return out


def reference_ring_areas(mesh: ci.TriMesh) -> np.ndarray:
    areas = mesh.face_areas()
    out = np.zeros(mesh.n_vertices)
    for c in range(3):
        np.add.at(out, mesh.faces[:, c], areas)
    return out


def reference_laplacian_field(mesh: ci.TriMesh, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    corners, m, norm_m = _reference_corner_contributions(mesh)
    mhat = m / norm_m
    f = [values[mesh.faces[:, c]] for c in range(3)]
    g = (f[0][:, None] * np.cross(mhat, corners[2] - corners[1])
         + f[1][:, None] * np.cross(mhat, corners[0] - corners[2])
         + f[2][:, None] * np.cross(mhat, corners[1] - corners[0])) / norm_m
    num = np.zeros(mesh.n_vertices)
    for c, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
        e = corners[j] - corners[i]
        an = np.cross(e, m) / norm_m  # a_i n_i
        np.add.at(num, mesh.faces[:, c], np.einsum("ij,ij->i", g, an))
    out = num / reference_ring_areas(mesh)
    out[reference_boundary_vertices(mesh)] = np.nan
    return out


# ---------------------------------------------------------------------------
# reference contour integrals: segment objects, a scalar boundary
# parameterization and one geometry evaluation per integral


_TANGENT_TOL = 1e-12


class _Line:
    def __init__(self, start, delta):
        self.start = start
        self.delta = delta

    def points(self, t):
        return self.start[0] + t * self.delta[0], self.start[1] + t * self.delta[1]

    def velocity(self, t):
        one = np.ones_like(t)
        return self.delta[0] * one, self.delta[1] * one


class _Circle:
    def __init__(self, uc, vc, rho):
        self.uc, self.vc, self.rho = uc, vc, rho

    def points(self, t):
        a = 2.0 * np.pi * t
        return self.uc + self.rho * np.cos(a), self.vc + self.rho * np.sin(a)

    def velocity(self, t):
        a = 2.0 * np.pi * t
        w = 2.0 * np.pi * self.rho
        return -w * np.sin(a), w * np.cos(a)


def _rect_edges(region: ci.RectRegion):
    # counterclockwise: bottom, right, top, left
    c = [(region.u0, region.v0), (region.u1, region.v0),
         (region.u1, region.v1), (region.u0, region.v1)]
    out = [(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]
    for k in range(4):
        a, b = c[k], c[(k + 1) % 4]
        yield a, (b[0] - a[0], b[1] - a[1]), out[k]


def reference_segments(region):
    if isinstance(region, ci.RectRegion):
        return [_Line(start, delta) for start, delta, _ in _rect_edges(region)]
    return [_Circle(region.uc, region.vc, region.rho)]


def reference_boundary_param(region, s: float):
    s = float(s) % 1.0
    if isinstance(region, ci.RectRegion):
        k = min(int(s * 4.0), 3)
        tau = s * 4.0 - k
        start, delta, outward = list(_rect_edges(region))[k]
        point = (start[0] + tau * delta[0], start[1] + tau * delta[1])
        return point, (4.0 * delta[0], 4.0 * delta[1]), outward
    a = 2.0 * math.pi * s
    point = (region.uc + region.rho * math.cos(a), region.vc + region.rho * math.sin(a))
    velocity = (-2.0 * math.pi * region.rho * math.sin(a),
                2.0 * math.pi * region.rho * math.cos(a))
    return point, velocity, (math.cos(a), math.sin(a))


def reference_boundary_point(surface, region, s: float) -> ci.BoundaryPoint:
    region.validate_on(surface)
    (u, v), (du, dv), _ = reference_boundary_param(region, s)
    pos, s1, s2, normal, _, _ = surface.geometry(u, v)
    d = du * s1 + dv * s2
    speed = float(np.linalg.norm(d))
    if speed < _TANGENT_TOL:
        raise ContourError(f"degenerate contour tangent at s={s}")
    tangent = d / speed
    n = np.cross(tangent, normal)
    n /= np.linalg.norm(n)
    return ci.BoundaryPoint(pos, tangent, n, speed)


def reference_boundary_quadrature(surface, region, rule, integrand):
    region.validate_on(surface)
    total = None
    for seg in reference_segments(region):
        t, w = ci.panel_nodes(0.0, 1.0, rule)
        u, v = seg.points(t)
        du, dv = seg.velocity(t)
        _, s1, s2, normal, _, _ = surface.geometry(u, v)
        d = du[:, None] * s1 + dv[:, None] * s2
        speed = np.linalg.norm(d, axis=1)
        if np.any(speed < _TANGENT_TOL):
            raise ContourError("degenerate contour tangent")
        tangent = d / speed[:, None]
        n = np.cross(tangent, normal)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        part = integrand(n, speed, w)
        total = part if total is None else total + part
    return total


def reference_interior_quadrature(surface, region, rule, values):
    region.validate_on(surface)
    if isinstance(region, ci.RectRegion):
        xu, wu = ci.panel_nodes(region.u0, region.u1, rule)
        xv, wv = ci.panel_nodes(region.v0, region.v1, rule)
        U = np.broadcast_to(xu[:, None], (len(xu), len(xv)))
        V = np.broadcast_to(xv[None, :], (len(xu), len(xv)))
        _, _, _, normal, sqrt_g, mean = surface.geometry(U, V)
        field = values(normal, mean, sqrt_g)
        if field.ndim == 2:
            return float(np.einsum("i,j,ij->", wu, wv, field))
        return np.einsum("i,j,ijk->k", wu, wv, field)
    xr, wr = ci.panel_nodes(0.0, region.rho, rule)
    xt, wt = ci.panel_nodes(0.0, 2.0 * math.pi, rule)
    U = region.uc + xr[:, None] * np.cos(xt)[None, :]
    V = region.vc + xr[:, None] * np.sin(xt)[None, :]
    _, _, _, normal, sqrt_g, mean = surface.geometry(U, V)
    field = values(normal, mean, sqrt_g)
    jac = xr[:, None]
    if field.ndim == 2:
        return float(np.einsum("i,j,ij->", wr, wt, field * jac))
    return np.einsum("i,j,ijk->k", wr, wt, field * jac[..., None])


def reference_rhs_integral(surface, region, rule) -> np.ndarray:
    return reference_boundary_quadrature(
        surface, region, rule, lambda n, speed, w: ((w * speed)[:, None] * n).sum(axis=0))


def reference_contour_length(surface, region, rule) -> float:
    return float(reference_boundary_quadrature(
        surface, region, rule, lambda n, speed, w: float(w @ speed)))


def reference_lhs_integral(surface, region, rule) -> np.ndarray:
    return reference_interior_quadrature(
        surface, region, rule, lambda n, mean, sqrt_g: n * (mean * sqrt_g)[..., None])


def reference_region_area(surface, region, rule) -> float:
    return reference_interior_quadrature(
        surface, region, rule, lambda n, mean, sqrt_g: sqrt_g)


def reference_verify_identity(surface, region, rule) -> ci.IdentityReport:
    lhs = reference_lhs_integral(surface, region, rule)
    rhs = reference_rhs_integral(surface, region, rule)
    area = reference_region_area(surface, region, rule)
    abs_err = float(np.linalg.norm(lhs - rhs))
    rel_err = abs_err / max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-30)
    return ci.IdentityReport(lhs, rhs, abs_err, rel_err, area)
