"""The benchmark's own references for curvint's outputs.

Nothing here imports curvint: every expected value is derived again from
the input files or from closed forms, so a check can catch a wrong answer
that curvint computes consistently with itself.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# files


def read_off(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Triangle OFF as written by the benchmark's inputs and by curvint."""
    rows = [line.split() for line in text.splitlines()
            if line.split("#", 1)[0].strip()]
    if rows[0] != ["OFF"]:
        raise ValueError("not an OFF file")
    n_v, n_f = int(rows[1][0]), int(rows[1][1])
    pos = np.array(rows[2:2 + n_v], dtype=float).reshape(n_v, 3)
    faces = np.array(rows[2 + n_v:2 + n_v + n_f], dtype=np.int64).reshape(n_f, 4)
    if np.any(faces[:, 0] != 3):
        raise ValueError("OFF file holds a non-triangle")
    return pos, faces[:, 1:]


def read_obj(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Triangle OBJ with plain 1-based `f i j k` records."""
    verts, faces = [], []
    for line in text.splitlines():
        tok = line.split()
        if tok and tok[0] == "v":
            verts.append([float(t) for t in tok[1:4]])
        elif tok and tok[0] == "f":
            faces.append([int(t.split("/")[0]) - 1 for t in tok[1:4]])
    return np.array(verts, dtype=float), np.array(faces, dtype=np.int64)


def read_csv(text: str) -> list[list[str]]:
    """Data rows of a CSV with a header line, split on commas."""
    return [line.split(",") for line in text.splitlines()[1:]]


def mean_edge_length(pos: np.ndarray, faces: np.ndarray) -> float:
    a, b = faces, np.roll(faces, -1, axis=1)
    return float(np.linalg.norm(pos[a] - pos[b], axis=2).mean())


# ---------------------------------------------------------------------------
# one-ring quantities from corner arrays


def face_areas(pos: np.ndarray, faces: np.ndarray) -> np.ndarray:
    p0, p1, p2 = (pos[faces[:, k]] for k in range(3))
    return 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)


def boundary_mask(n_vertices: int, faces: np.ndarray) -> np.ndarray:
    """Vertices on an edge that only one face uses."""
    a = faces.ravel()
    b = np.roll(faces, -1, axis=1).ravel()
    keys = np.minimum(a, b) * n_vertices + np.maximum(a, b)
    uniq, counts = np.unique(keys, return_counts=True)
    open_keys = uniq[counts == 1]
    mask = np.zeros(n_vertices, dtype=bool)
    mask[open_keys // n_vertices] = True
    mask[open_keys % n_vertices] = True
    return mask


def _scatter(faces: np.ndarray, per_corner: np.ndarray, n: int) -> np.ndarray:
    """Sum per-corner values (F, 3[, k]) onto the corner vertices."""
    idx = faces.ravel()
    flat = per_corner.reshape(len(idx), -1)
    out = np.stack([np.bincount(idx, flat[:, k], minlength=n)
                    for k in range(flat.shape[1])], axis=1)
    return out if per_corner.ndim == 3 else out[:, 0]


def corner_edge_normals(pos: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """a_i n_i per corner, shape (F, 3, 3): the length of the opposite
    edge times the in-plane unit vector perpendicular to it that points
    away from the corner. Built as the part of (P - O) orthogonal to the
    edge P -> Q, which needs no face normal."""
    out = np.empty((len(faces), 3, 3))
    for c in range(3):
        o = pos[faces[:, c]]
        p = pos[faces[:, (c + 1) % 3]]
        q = pos[faces[:, (c + 2) % 3]]
        d = q - p
        a2 = np.einsum("ij,ij->i", d, d)
        w = (p - o) - (np.einsum("ij,ij->i", p - o, d) / a2)[:, None] * d
        out[:, c] = np.sqrt(a2)[:, None] * w / np.linalg.norm(w, axis=1)[:, None]
    return out


def mesh_curvature(pos: np.ndarray, faces: np.ndarray):
    """(B, star scale sum(a_i)/sum(A_i), ring area) for every vertex."""
    an = corner_edge_normals(pos, faces)
    ring = _scatter(faces, np.repeat(face_areas(pos, faces)[:, None], 3, axis=1), len(pos))
    num = _scatter(faces, an, len(pos))
    edge_sum = _scatter(faces, np.linalg.norm(an, axis=2), len(pos))
    return num / ring[:, None], edge_sum / ring, ring


def area_gradient(pos: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """-sum(a_i n_i) / 2 at every vertex."""
    return -0.5 * _scatter(faces, corner_edge_normals(pos, faces), len(pos))


def mesh_laplacian(pos: np.ndarray, faces: np.ndarray, f: np.ndarray):
    """(L, scale) per vertex: sum(a_i g_i . n_i) / sum(A_i), with g_i the
    in-plane gradient of the linear interpolant on face i, solved from its
    2x2 Gram system; scale is sum(a_i |g_i|) / sum(A_i)."""
    o, p, q = (pos[faces[:, k]] for k in range(3))
    d1, d2 = p - o, q - o
    g11 = np.einsum("ij,ij->i", d1, d1)
    g12 = np.einsum("ij,ij->i", d1, d2)
    g22 = np.einsum("ij,ij->i", d2, d2)
    r1 = f[faces[:, 1]] - f[faces[:, 0]]
    r2 = f[faces[:, 2]] - f[faces[:, 0]]
    det = g11 * g22 - g12 * g12
    alpha = (g22 * r1 - g12 * r2) / det
    beta = (g11 * r2 - g12 * r1) / det
    grad = alpha[:, None] * d1 + beta[:, None] * d2
    an = corner_edge_normals(pos, faces)
    ring = _scatter(faces, np.repeat(face_areas(pos, faces)[:, None], 3, axis=1), len(pos))
    num = _scatter(faces, np.einsum("fk,fck->fc", grad, an), len(pos))
    mag = _scatter(faces, np.linalg.norm(an, axis=2) * np.linalg.norm(grad, axis=1)[:, None],
                   len(pos))
    return num / ring, mag / ring


def flow_states(pos: np.ndarray, faces: np.ndarray, dt: float, steps: int):
    """Explicit Euler x += dt * B; per state (area, max |B|, min face
    area), row 0 being the input, plus the final positions."""
    rows = []
    for k in range(steps + 1):
        b, _, _ = mesh_curvature(pos, faces)
        areas = face_areas(pos, faces)
        rows.append((areas.sum(), np.linalg.norm(b, axis=1).max(), areas.min()))
        if k < steps:
            pos = pos + dt * b
    return np.array(rows), pos


# ---------------------------------------------------------------------------
# analytic surfaces


def sphere_rect_integral(radius: float, t0: float, t1: float,
                         p0: float, p1: float) -> np.ndarray:
    """Closed form of the patch integral of N H over the colatitude /
    longitude rectangle of an outward-normal sphere (N H = -2 r_hat / R,
    dS = R^2 sin(t) dt dp)."""
    s2 = (t1 - t0) / 2 - (math.sin(2 * t1) - math.sin(2 * t0)) / 4  # int sin^2
    sc = (math.sin(t1) ** 2 - math.sin(t0) ** 2) / 2               # int sin cos
    v = np.array([s2 * (math.sin(p1) - math.sin(p0)),
                  s2 * (math.cos(p0) - math.cos(p1)),
                  sc * (p1 - p0)])
    return -2.0 * radius * v


def sphere_mean_curvature_vector(radius: float, t: float, p: float) -> np.ndarray:
    return -2.0 / radius * np.array([math.sin(t) * math.cos(p),
                                     math.sin(t) * math.sin(p), math.cos(t)])


def torus_mean_curvature_vector(major: float, minor: float, u: float, v: float) -> np.ndarray:
    """For r = ((R + r cos u) cos v, (R + r cos u) sin v, r sin u) the
    normal r_u x r_v points into the tube and H = 1/r + cos u / (R + r cos u)."""
    inward = -np.array([math.cos(u) * math.cos(v), math.cos(u) * math.sin(v), math.sin(u)])
    return inward * (1.0 / minor + math.cos(u) / (major + minor * math.cos(u)))


def _minimal_partials(name: str, u, v):
    one, zero = np.ones_like(u), np.zeros_like(u)
    if name == "plane":
        return np.stack([one, zero, zero], -1), np.stack([zero, one, zero], -1)
    if name == "catenoid":  # waist 1
        ru = np.stack([np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), one], -1)
        rv = np.stack([-np.cosh(u) * np.sin(v), np.cosh(u) * np.cos(v), zero], -1)
        return ru, rv
    if name == "enneper":
        ru = np.stack([1 - u * u + v * v, 2 * u * v, 2 * u], -1)
        rv = np.stack([2 * u * v, 1 - v * v + u * u, -2 * v], -1)
        return ru, rv
    raise ValueError(f"no reference chart for {name}")


def contour_length(name: str, region: tuple) -> float:
    """Arc length of a rect ('rect', u0, u1, v0, v1) or disk ('disk', uc,
    vc, rho) boundary on a minimal surface, by 64-point Gauss-Legendre on
    8 panels per edge."""
    x, w = np.polynomial.legendre.leggauss(64)
    t = ((np.arange(8)[:, None] + (x[None, :] + 1) / 2) / 8).ravel()
    wt = np.tile(w / 16, 8)
    if region[0] == "rect":
        _, u0, u1, v0, v1 = region
        corners = [(u0, v0), (u1, v0), (u1, v1), (u0, v1)]
        paths = [(corners[k], corners[(k + 1) % 4]) for k in range(4)]
        pieces = [(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]),
                   np.full_like(t, b[0] - a[0]), np.full_like(t, b[1] - a[1]))
                  for a, b in paths]
    else:
        _, uc, vc, rho = region
        ang = 2 * np.pi * t
        pieces = [(uc + rho * np.cos(ang), vc + rho * np.sin(ang),
                   -2 * np.pi * rho * np.sin(ang), 2 * np.pi * rho * np.cos(ang))]
    total = 0.0
    for u, v, du, dv in pieces:
        ru, rv = _minimal_partials(name, u, v)
        total += float(wt @ np.linalg.norm(du[:, None] * ru + dv[:, None] * rv, axis=1))
    return total
