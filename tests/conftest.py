"""Shared helpers for the test suite: stock meshes, perturbed-mesh
factories, parameter-domain sampling boxes, malformed-file fixtures, and
the per-vertex loops (one-ring, area gradient, Laplacian) kept as
references for the whole-mesh results that replaced them."""

from __future__ import annotations

import numpy as np

import curvint as ci
from curvint import BoundaryVertexError, IsolatedVertexError, MeshValidationError
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
