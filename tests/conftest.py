"""Shared helpers for the test suite: a deterministic hypothesis profile,
stock meshes, perturbed-mesh factories, meshes with runs of isolated
vertices, closed meshes of random connectivity by edge flips and their
open (one face deleted) and bowtie (two joined at one vertex) variants,
parameter-domain sampling boxes,
malformed-file fixtures and OBJ texts with face-index suffixes, the
hand-built grid and surfaces of revolution kept as references for the
surface sampler's primitives, the icosphere's dict of edge midpoints and the row-by-row mesh writer kept as references
for their numpy replacements, the
face-by-face vertex classification (one-ring
loop, and the open-edge set it contains), the per-vertex loops
(one-ring, area gradient, Laplacian, the finite-difference area
gradient over rebuilt meshes) kept as references for the whole-mesh
results that replaced them, the per-face sums (face areas, star
sums, ring areas, edge lengths, degenerate flags, Laplacian field) on
np.cross, np.linalg.norm and np.add.at kept as references for the
corner kernel's column pass, the flow loop of one mesh per step kept as
the reference for one corner pass per flow state, the surface geometry
on stacked (..., 3) jet arrays kept as the reference for the column-wise
geometry, and the per-segment contour and per-region interior quadrature
on it kept as references for the region pieces and one-pass integrals of
`curvint.contour`; the pointwise surface frame, the finite-difference
mean curvature and the stock surfaces that only the tests use; and the
per-row CSV writers of the command line, kept as references for its
whole-array tables, and the OFF, OBJ and field readers as loops over
the lines, kept as references for the readers that convert each section
in one pass. The one-ring references are memoised per mesh
(meshes are immutable): the oracles rebuild the same star many times."""

from __future__ import annotations

import functools
import io
import math
import weakref
from array import array
from itertools import islice
from typing import NamedTuple

import numpy as np
from hypothesis import Phase, settings, strategies as st

import curvint as ci
from curvint import (BoundaryVertexError, CollapseError, ContourError, IsolatedVertexError,
                     MeshValidationError, ParseError)
from curvint import discrete
from curvint.mesh import MIN_FACE_AREA, _icosahedron
from curvint.surfaces import _DEGENERATE_TOL

# the same examples on every run: each test's draws are seeded from a hash
# of the test (which also turns the example database off)
settings.register_profile("curvint", derandomize=True, deadline=None)
settings.load_profile("curvint")

# the bitwise guards report their first failing example: shrinking it
# reruns full-grid oracles for minutes
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


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


def jiggled_icosphere(level: int, seed: int) -> ci.TriMesh:
    base = ci.make_icosphere(level, 1.0)
    rng = np.random.default_rng(seed)
    return base.with_positions(base.positions
                               + (0.2 / 2 ** level) * rng.standard_normal(base.positions.shape))


def isolated_vertex() -> ci.TriMesh:
    """An icosphere of level 1 after an extra vertex 0 in no face."""
    base = ci.make_icosphere(1, 1.0)
    return ci.TriMesh(np.vstack([[5.0, 5.0, 5.0], base.positions]), base.faces + 1)


def isolated_and_boundary(isolated_first: bool) -> tuple[ci.TriMesh, int, int]:
    """(mesh, isolated, boundary): a 4 x 4 grid and one vertex in no face,
    numbered before or after the grid's, with the indices of that vertex
    and of the mesh's first boundary vertex."""
    grid, extra = ci.make_grid(4), [[5.0, 5.0, 5.0]]
    if isolated_first:
        return ci.TriMesh(np.vstack([extra, grid.positions]), grid.faces + 1), 0, 1
    return ci.TriMesh(np.vstack([grid.positions, extra]), grid.faces), grid.n_vertices, 0


def with_isolated_runs(mesh: ci.TriMesh, runs, seed: int) -> ci.TriMesh:
    """mesh with runs of isolated vertices inserted: (at, count) puts
    count new vertices, at random positions, before old vertex at."""
    at = [a for a, count in runs for _ in range(count)]
    isolated = np.insert(np.zeros(mesh.n_vertices, dtype=bool), at, True)
    positions = np.random.default_rng(seed).standard_normal((len(isolated), 3))
    positions[~isolated] = mesh.positions
    return ci.TriMesh(positions, np.flatnonzero(~isolated)[mesh.faces])


def edge_flipped(mesh: ci.TriMesh, tries: int, seed: int) -> ci.TriMesh:
    """A closed mesh after `tries` draws of a random edge flip: the edge
    (a, b) of faces (a, b, c) and (b, a, d) becomes (c, d), in faces
    (a, d, c) and (d, b, c), unless c and d share an edge already or a or
    b would keep fewer than 3 faces. The mesh stays closed and oriented;
    on a flat grid flips would make collinear faces, so flip curved
    meshes."""
    faces = mesh.faces.tolist()
    owner = {(f[i], f[i - 2]): n for n, f in enumerate(faces) for i in range(3)}
    valence = np.bincount(mesh.faces.ravel(), minlength=mesh.n_vertices)
    rng = np.random.default_rng(seed)
    for n, i in zip(rng.integers(len(faces), size=tries), rng.integers(3, size=tries)):
        a, b, c = faces[n][i], faces[n][i - 2], faces[n][i - 1]
        m = owner[b, a]
        d = sum(faces[m]) - a - b
        if (c, d) in owner or min(valence[a], valence[b]) <= 3:
            continue
        for edge in [(a, b), (b, c), (c, a), (b, a), (a, d), (d, b)]:
            del owner[edge]
        faces[n], faces[m] = [a, d, c], [d, b, c]
        owner.update({(f[i], f[i - 2]): k for k, f in [(n, faces[n]), (m, faces[m])]
                      for i in range(3)})
        valence[[a, b]] -= 1
        valence[[c, d]] += 1
    return ci.TriMesh(mesh.positions, faces)


# closed meshes of random connectivity: up to 600 flip draws on an
# icosphere of level 1 or 2, whose vertices then have 3 to about 20 faces
flipped_meshes = st.builds(edge_flipped, st.builds(ci.make_icosphere, st.integers(1, 2)),
                           st.integers(0, 600), st.integers(0, 2 ** 32 - 1))


# (mesh, its boundary vertices in order): a flipped mesh less one face,
# whose three vertices are left on an open edge, and two flipped meshes
# joined at one vertex
@st.composite
def opened_meshes(draw) -> tuple[ci.TriMesh, np.ndarray]:
    mesh = draw(flipped_meshes)
    face = draw(st.integers(0, mesh.n_faces - 1))
    return (ci.TriMesh(mesh.positions, np.delete(mesh.faces, face, axis=0)),
            np.sort(mesh.faces[face]))


@st.composite
def bowtie_meshes(draw) -> tuple[ci.TriMesh, np.ndarray]:
    """Flipped meshes a and b joined at one vertex: b, moved so that its
    vertex j lies on a's vertex i, shares that vertex, whose star is then
    two closed fans; b's other vertices follow a's in b's order."""
    a, b = draw(flipped_meshes), draw(flipped_meshes)
    i, j = draw(st.integers(0, a.n_vertices - 1)), draw(st.integers(0, b.n_vertices - 1))
    keep = np.arange(b.n_vertices) != j
    label = np.full(b.n_vertices, i)
    label[keep] = a.n_vertices + np.arange(b.n_vertices - 1)
    moved = b.positions[keep] + (a.positions[i] - b.positions[j])
    return (ci.TriMesh(np.vstack([a.positions, moved]), np.vstack([a.faces, label[b.faces]])),
            np.array([i]))


# (name, mesh): the bundled meshes, perturbed ones and a jiggled ico3
STOCK = ([(name, m) for name, m in bundled_meshes()]
         + [(f"perturbed{k}", m) for k, m in enumerate(perturbed_meshes(10, 0.05))]
         + [("jiggled_ico3", jiggled_icosphere(3, 3))])


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

# (label, format, text, 1-based line and index of the first vertex with a
# non-finite coordinate)
NON_FINITE_FIXTURES = [
    ("obj_inf", "obj", "v 0 0 0\nv 1 inf 0\nv 0 1 0\nf 1 2 3\n", 2, 1),
    ("obj_overflow_after_faces", "obj",
     "v 0 0 0\nf 1 2 3\n# v 9 9 9\nvn 0 0 1\nv 1 0 0\n  v 0 1 1e999\n", 6, 2),
    ("off_nan", "off", "OFF\n3 1 0\n0 0 0\n# comment\n\n1 0 0\n0 nan 0\n3 0 1 2\n", 7, 2),
    ("off_negative_inf", "off", "OFF\n3 1 0\n-inf 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 3, 0),
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
    ("obj_beyond_int64", "obj",
     "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 99999999999999999999999\n", 5, 1,
     "references a missing vertex"),
    ("off_beyond_int64", "off",
     "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 99999999999999999999999\n", 7, 1,
     "references a missing vertex"),
    # finite coordinates whose products overflow
    ("off_overflowing_tetrahedron", "off",
     "OFF\n4 4 0\n0 0 0\n1e200 0 0\n0 1e200 0\n0 0 1e200\n"
     "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n", 7, 0, "has a non-finite area (inf)"),
    ("obj_overflow_after_finite_face", "obj",
     "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1e200\nf 1 2 3\nf 1 2 4\n", 6, 1,
     "has a non-finite area (inf)"),
    ("off_overflow_to_nan", "off",
     "OFF\n3 1 0\n0 0 0\n1e200 1e200 0\n1e200 2e200 0\n3 0 1 2\n", 6, 0,
     "has a non-finite area (nan)"),
]


def suffixed(text: str, suffix: str) -> str:
    """An OBJ text with `suffix` after every index of its `f` records."""
    lines = [line.split() for line in text.splitlines()]
    return "".join(" ".join(t[:1] + [i + suffix for i in t[1:]] if t[:1] == ["f"] else t) + "\n"
                   for t in lines)


# ---------------------------------------------------------------------------
# reference primitives: the face loops that built the grid, tube and
# catenoid before they were samples of curvint.surfaces


def reference_make_grid(n: int) -> ci.TriMesh:
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    positions = np.column_stack([xx.ravel(), yy.ravel(), np.zeros((n + 1) ** 2)])

    def vid(i, j):
        return j * (n + 1) + i

    faces = []
    for j in range(n):
        for i in range(n):
            faces.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            faces.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return ci.TriMesh(positions, faces)


def reference_revolution_mesh(profile_r, profile_z, n_v: int) -> ci.TriMesh:
    rings = len(profile_r)
    angles = np.linspace(0.0, 2.0 * math.pi, n_v, endpoint=False)
    positions = np.empty((rings * n_v, 3))
    for i in range(rings):
        positions[i * n_v:(i + 1) * n_v, 0] = profile_r[i] * np.cos(angles)
        positions[i * n_v:(i + 1) * n_v, 1] = profile_r[i] * np.sin(angles)
        positions[i * n_v:(i + 1) * n_v, 2] = profile_z[i]
    faces = []
    for i in range(rings - 1):
        for j in range(n_v):
            a = i * n_v + j
            b = i * n_v + (j + 1) % n_v
            c = (i + 1) * n_v + (j + 1) % n_v
            d = (i + 1) * n_v + j
            faces.extend([[a, b, c], [a, c, d]])
    return ci.TriMesh(positions, faces)


def reference_make_tube(radius: float, length: float, n_u: int, n_v: int) -> ci.TriMesh:
    z = np.linspace(0.0, length, n_u + 1)
    return reference_revolution_mesh(np.full(n_u + 1, float(radius)), z, n_v)


def reference_make_catenoid(waist: float, n_u: int, n_v: int) -> ci.TriMesh:
    z = np.linspace(-waist, waist, n_u + 1)
    return reference_revolution_mesh(waist * np.cosh(z / waist), z, n_v)


def reference_make_icosphere(level: int, radius: float = 1.0) -> ci.TriMesh:
    """The icosphere with its edge midpoints numbered by a dict, one face
    at a time, as make_icosphere built it before its edge keys."""
    verts, faces = _icosahedron()
    verts = list(verts)
    for _ in range(level):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in cache:
                cache[key] = len(verts)
                verts.append(0.5 * (verts[a] + verts[b]))
            return cache[key]

        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            next_faces.extend([[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]])
        faces = np.array(next_faces)
    positions = np.asarray(verts)
    positions = positions * (radius / np.linalg.norm(positions, axis=1))[:, None]
    return ci.TriMesh(positions, faces)


# ---------------------------------------------------------------------------
# reference writer: one f-string per row into a StringIO, as mesh_to_text
# wrote meshes before its one %-format per block


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def reference_mesh_to_text(mesh: ci.TriMesh, fmt: str) -> str:
    out = io.StringIO()
    if fmt == "obj":
        for p in mesh.positions:
            out.write(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        for f in mesh.faces:
            out.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
    else:
        out.write("OFF\n")
        out.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n")
        for p in mesh.positions:
            out.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        for f in mesh.faces:
            out.write(f"3 {f[0]} {f[1]} {f[2]}\n")
    return out.getvalue()


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


def per_mesh(fn):
    """fn(mesh, *args), computed once per mesh and arguments while the
    mesh lives."""
    cache = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def memoised(mesh, *args):
        results = cache.setdefault(mesh, {})
        if args not in results:
            results[args] = fn(mesh, *args)
        return results[args]

    return memoised


@per_mesh
def reference_open_stars(mesh: ci.TriMesh) -> np.ndarray:
    """Vertices with incident faces whose opposite edges do not close
    into one loop, gathered face by face."""
    stars: list[list[tuple[int, int]]] = [[] for _ in range(mesh.n_vertices)]
    for a, b, c in mesh.faces.tolist():
        stars[a].append((b, c))
        stars[b].append((c, a))
        stars[c].append((a, b))
    return np.array([bool(edges) and not reference_opposite_edges_close(edges)
                     for edges in stars], dtype=bool)


def reference_boundary_vertices(mesh: ci.TriMesh) -> np.ndarray:
    """Vertices on an edge used by one face only: on a manifold mesh,
    the same set as reference_open_stars."""
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    if len(mesh.faces):
        e = np.concatenate([mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]],
                            mesh.faces[:, [2, 0]]])
        e = np.sort(e, axis=1)
        _, idx, counts = np.unique(e, axis=0, return_index=True, return_counts=True)
        mask[e[idx[counts == 1]].ravel()] = True
    return mask


@per_mesh
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
    if magnitude <= tol_direction * scale:
        return ci.CurvatureSample(vec, magnitude, None, True)
    return ci.CurvatureSample(vec, magnitude, vec / magnitude, False)


def reference_curvature_field(mesh: ci.TriMesh, tol_direction: float = 1e-8):
    boundary = reference_open_stars(mesh)
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


def reference_fd_area_gradient(mesh: ci.TriMesh, h: float, vertices=None) -> np.ndarray:
    """Rows `vertices` (default all) of the central difference of the
    total area, one central_gradient per vertex over meshes rebuilt with
    that vertex moved: gradcheck's oracle before the complex step."""
    base = mesh.positions
    vertices = range(mesh.n_vertices) if vertices is None else vertices
    out = np.empty((len(vertices), 3))
    for row, v in enumerate(vertices):

        def area_of(p, v=v):
            moved = base.copy()
            moved[v] = p
            return ci.total_area(mesh.with_positions(moved))

        out[row] = ci.central_gradient(area_of, base[v], h)
    return out


# ---------------------------------------------------------------------------
# reference whole-mesh sums: the per-face passes that served the flow and
# laplacian_field before every sum went through one corner kernel, on
# row gathers, np.cross, np.linalg.norm and np.add.at


def _reference_corner_contributions(mesh: ci.TriMesh):
    p0, p1, p2 = (mesh.positions[mesh.faces[:, c]] for c in range(3))
    m = np.cross(p1 - p0, p2 - p0)
    norm_m = np.linalg.norm(m, axis=1, keepdims=True)
    return (p0, p1, p2), m, norm_m


def reference_face_areas(mesh: ci.TriMesh) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * _reference_corner_contributions(mesh)[2][:, 0]


def reference_star_sums(mesh: ci.TriMesh) -> np.ndarray:
    corners, m, norm_m = _reference_corner_contributions(mesh)
    out = np.zeros((mesh.n_vertices, 3))
    for c, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
        e = corners[j] - corners[i]
        with np.errstate(invalid="ignore", divide="ignore"):
            an = np.cross(e, m) / norm_m
        np.add.at(out, mesh.faces[:, c], an)
    return out


def _reference_corner_sums(mesh: ci.TriMesh, per_slot) -> np.ndarray:
    out = np.zeros(mesh.n_vertices)
    for c in range(3):
        np.add.at(out, mesh.faces[:, c], per_slot(c))
    return out


def reference_ring_areas(mesh: ci.TriMesh) -> np.ndarray:
    areas = reference_face_areas(mesh)
    return _reference_corner_sums(mesh, lambda c: areas)


def reference_edge_lengths(mesh: ci.TriMesh) -> np.ndarray:
    corners = _reference_corner_contributions(mesh)[0]

    def lengths(c):
        e = corners[(c + 2) % 3] - corners[(c + 1) % 3]
        return np.sqrt(np.einsum("ij,ij->i", e, e))
    return _reference_corner_sums(mesh, lengths)


def _reference_curvature(mesh: ci.TriMesh) -> np.ndarray:
    return reference_star_sums(mesh) / reference_ring_areas(mesh)[:, None]


def _reference_step(mesh: ci.TriMesh, dt: float, curvature: np.ndarray) -> ci.TriMesh:
    if dt == 0:
        return mesh
    positions = mesh.positions + dt * curvature
    p = positions[mesh.faces]
    with np.errstate(over="ignore", invalid="ignore"):
        areas = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    worst = int(np.argmin(areas))
    if areas[worst] < MIN_FACE_AREA:
        raise CollapseError(f"face {worst} collapsed to area {areas[worst]:.3e}",
                            face=worst, area=float(areas[worst]))
    # a new mesh, and topology, from the face array
    return ci.TriMesh(positions, mesh.faces)


def reference_mcf_step(mesh: ci.TriMesh, dt: float) -> ci.TriMesh:
    return _reference_step(mesh, dt, _reference_curvature(mesh))


def reference_run_flow(mesh: ci.TriMesh, dt: float, n_steps: int, step=reference_mcf_step):
    """run_flow's loop of one mesh per step, each made by step(mesh, dt),
    with each state's B from the reference sums and its areas
    recomputed; no refusal checks."""
    def record(index, m):
        areas = reference_face_areas(m)
        return ci.FlowStep(index, float(areas.sum()),
                           float(np.linalg.norm(_reference_curvature(m), axis=1).max()),
                           float(areas.min()))

    current = mesh
    steps = [record(0, current)]
    stop_reason = None
    for k in range(1, n_steps + 1):
        try:
            stepped = step(current, dt)
        except CollapseError as exc:
            stop_reason = f"collapse at step {k}: {exc}"
            break
        entry = record(k, stepped)
        if dt > 0 and entry.area >= steps[-1].area:
            stop_reason = f"area did not decrease at step {k} (dt too large)"
            break
        current = stepped
        steps.append(entry)
    return ci.FlowTrace(dt, tuple(steps), stop_reason), current


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
# reference geometry: the surface frame and mean curvature on the jet's
# columns stacked into (..., 3) arrays, by np.cross, np.linalg.norm and
# einsum dot products


def stacked_jet(surface, u, v) -> list[np.ndarray]:
    """jet(u, v) with each vector's component columns stacked along a
    trailing axis of 3."""
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    return [np.stack([np.broadcast_to(c, u.shape) for c in cols], axis=-1)
            for cols in surface.jet(u, v)]


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def reference_geometry(surface, u, v):
    """(position, s1, s2, normal, sqrt_g, mean_curvature) as geometry()
    computed them on stacked arrays."""
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    surface.require_inside(u, v)
    pos, s1, s2, ruu, ruv, rvv = stacked_jet(surface, u, v)
    cross = np.cross(s1, s2)
    sqrt_g = np.linalg.norm(cross, axis=-1)
    if np.any(sqrt_g < _DEGENERATE_TOL):
        raise ci.DomainError(f"degenerate parameterization of {surface.name}")
    normal = cross / sqrt_g[..., None]
    g11, g12, g22 = _dot(s1, s1), _dot(s1, s2), _dot(s2, s2)
    b11, b12, b22 = _dot(ruu, normal), _dot(ruv, normal), _dot(rvv, normal)
    mean = (g22 * b11 - 2.0 * g12 * b12 + g11 * b22) / (g11 * g22 - g12 * g12)
    return pos, s1, s2, normal, sqrt_g, mean


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
    pos, s1, s2, normal, _, _ = reference_geometry(surface, u, v)
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
        _, s1, s2, normal, _, _ = reference_geometry(surface, u, v)
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
        _, _, _, normal, sqrt_g, mean = reference_geometry(surface, U, V)
        field = values(normal, mean, sqrt_g)
        if field.ndim == 2:
            return float(np.einsum("i,j,ij->", wu, wv, field))
        return np.einsum("i,j,ijk->k", wu, wv, field)
    xr, wr = ci.panel_nodes(0.0, region.rho, rule)
    xt, wt = ci.panel_nodes(0.0, 2.0 * math.pi, rule)
    U = region.uc + xr[:, None] * np.cos(xt)[None, :]
    V = region.vc + xr[:, None] * np.sin(xt)[None, :]
    _, _, _, normal, sqrt_g, mean = reference_geometry(surface, U, V)
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


# ---------------------------------------------------------------------------
# the surface API that only the tests use: stock surfaces, one point's
# frame read from geometry(), and the mean curvature recomputed from
# finite-difference fundamental forms


def bundled_surfaces() -> list[ci.ParametricSurface]:
    """The stock surfaces exercised by the verification suites."""
    return [
        ci.Plane(),
        ci.Sphere(1.0),
        ci.Sphere(2.0),
        ci.Cylinder(1.0),
        ci.Torus(2.0, 0.5),
        ci.Catenoid(1.0),
        ci.Enneper(),
        ci.saddle(),
    ]


class SurfaceFrame(NamedTuple):
    """Pointwise surface data: position, coordinate tangents S1/S2, unit
    normal, area element |S1 x S2| and mean curvature."""

    position: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    normal: np.ndarray
    sqrt_g: float
    mean_curvature: float


def stacked_geometry(surface: ci.ParametricSurface, u, v, order: int = 2):
    """geometry() with each vector's component columns stacked along a
    trailing axis of 3."""
    *vectors, sqrt_g, mean = surface.geometry(u, v, order=order)
    return (*(np.stack(cols, axis=-1) for cols in vectors), sqrt_g, mean)


def frame(surface: ci.ParametricSurface, u: float, v: float) -> SurfaceFrame:
    """geometry() at a single parameter point."""
    pos, s1, s2, normal, sqrt_g, mean = stacked_geometry(surface, float(u), float(v))
    return SurfaceFrame(pos, s1, s2, normal, float(sqrt_g), float(mean))


def reference_numeric_mean_curvature(surface: ci.ParametricSurface, u: float, v: float,
                                     h: float = 1e-4) -> float:
    """Mean curvature recomputed from finite-difference fundamental
    forms; independent of jet()'s derivative entries, same sign
    convention as geometry()."""
    if h <= 0:
        raise ValueError("step h must be positive")
    surface.require_inside(u, v)
    for x, rng, periodic in ((u, surface.u_range, surface.u_periodic),
                             (v, surface.v_range, surface.v_periodic)):
        if not periodic:
            lo, hi = rng
            if (math.isfinite(lo) and x - 2 * h < lo) or \
               (math.isfinite(hi) and x + 2 * h > hi):
                raise ci.DomainError("point too close to the domain edge for the stencil")
    p = surface.position
    s1 = (p(u + h, v) - p(u - h, v)) / (2 * h)
    s2 = (p(u, v + h) - p(u, v - h)) / (2 * h)
    pc = p(u, v)
    ruu = (p(u + h, v) - 2 * pc + p(u - h, v)) / (h * h)
    rvv = (p(u, v + h) - 2 * pc + p(u, v - h)) / (h * h)
    ruv = (p(u + h, v + h) - p(u + h, v - h)
           - p(u - h, v + h) + p(u - h, v - h)) / (4 * h * h)
    cross = np.cross(s1, s2)
    sqrt_g = float(np.linalg.norm(cross))
    if sqrt_g < _DEGENERATE_TOL:
        raise ci.DomainError(f"degenerate parameterization of {surface.name}")
    normal = cross / sqrt_g
    g11, g12, g22 = float(s1 @ s1), float(s1 @ s2), float(s2 @ s2)
    b11, b12, b22 = float(ruu @ normal), float(ruv @ normal), float(rvv @ normal)
    return (g22 * b11 - 2 * g12 * b12 + g11 * b22) / (g11 * g22 - g12 * g12)


# ---------------------------------------------------------------------------
# reference CSV writers: the command line's tables, one row and one
# format(x, ".17g") per field at a time, from the per-vertex functions


def _csv(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def reference_verify_csv(surface, region, report: ci.IdentityReport) -> str:
    return _csv(["surface,region,lhs_x,lhs_y,lhs_z,rhs_x,rhs_y,rhs_z,abs_err,rel_err,area",
                 ",".join([surface.name, region.label]
                          + [_fmt(x) for x in report.lhs] + [_fmt(x) for x in report.rhs]
                          + [_fmt(report.abs_err), _fmt(report.rel_err), _fmt(report.area)])])


def reference_limit_csv(study: ci.LimitEstimate) -> str:
    lines = ["radius,est_x,est_y,est_z,err,observed_order"]
    for i, rho in enumerate(study.radii):
        last = i == len(study.radii) - 1
        lines.append(",".join(
            [_fmt(rho)] + [_fmt(x) for x in study.estimates[i]]
            + [_fmt(study.errors[i]), _fmt(study.observed_order) if last else ""]))
    return _csv(lines)


def reference_curvature_csv(mesh: ci.TriMesh, tol_direction: float = 1e-8) -> str:
    lines = ["vertex,Bx,By,Bz,magnitude,near_minimal,boundary"]
    for v, sample in enumerate(ci.curvature_field(mesh, tol_direction)):
        if sample is None:
            lines.append(f"{v},,,,,,1")
        else:
            b = sample.vector
            lines.append(",".join([str(v), _fmt(b[0]), _fmt(b[1]), _fmt(b[2]),
                                   _fmt(sample.magnitude),
                                   "1" if sample.near_minimal else "0", "0"]))
    return _csv(lines)


def reference_gradcheck_csv(mesh: ci.TriMesh, fd: np.ndarray) -> str:
    """gradcheck's CSV from area_gradient, vertex by vertex, against the
    oracle rows fd."""
    floor = 1e-8 * 0.5 * mesh.corner_kernel().edge_lengths
    lines = ["vertex,analytic_x,analytic_y,analytic_z,fd_x,fd_y,fd_z,rel_err"]
    for v in range(mesh.n_vertices):
        analytic = discrete.area_gradient(mesh, v)
        rel = float(np.linalg.norm(analytic - fd[v])) / max(
            float(np.linalg.norm(analytic)), float(np.linalg.norm(fd[v])), float(floor[v]), 1e-30)
        lines.append(",".join([str(v)] + [_fmt(x) for x in [*analytic, *fd[v], rel]]))
    return _csv(lines)


def reference_laplacian_csv(mesh: ci.TriMesh, values) -> str:
    lap = ci.laplacian_field(mesh, values)
    return _csv(["vertex,L"] + [f"{v},{_fmt(lap[v])}" for v in interior_vertices(mesh)])


def reference_flow_csv(trace: ci.FlowTrace) -> str:
    return _csv(["step,area,max_B,min_tri_area"]
                + [",".join([str(s.index), _fmt(s.area), _fmt(s.max_curvature),
                             _fmt(s.min_face_area)]) for s in trace.steps])


def reference_read_field(path, n_vertices: int) -> np.ndarray:
    """The `laplacian` field reader as one loop over the lines, line 1 a
    header when its first of two fields is no vertex index."""
    values = [None] * n_vertices
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'vertex,value'")
        try:
            v = int(parts[0])
        except ValueError:
            if lineno == 1:
                continue
            raise ValueError(f"{path}:{lineno}: expected 'vertex,value'") from None
        try:
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
# mesh readers


def _reference_finite(positions: np.ndarray, vertex_lines, path) -> np.ndarray:
    """positions, or a ParseError at the line of the first vertex with a
    non-finite coordinate; vertex_lines is an iterator over the line of
    each vertex, in order, read only then."""
    bad = ~np.isfinite(positions).all(axis=1)
    if bad.any():
        v = int(np.argmax(bad))
        raise ParseError(f"vertex {v} has a non-finite coordinate",
                         next(islice(vertex_lines, v, None)), path)
    return positions


def reference_parse_obj(lines, path) -> tuple:
    """The OBJ reader as one loop over the lines, which converts and
    checks each record in turn."""
    positions = []
    faces = []
    face_lines = array("q")  # 8 bytes per triangle, where a list holds int objects
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "v":
            if len(tokens) < 4:
                raise ParseError("vertex record needs 3 coordinates", lineno, path)
            try:
                positions.append([float(t) for t in tokens[1:4]])
            except ValueError:
                raise ParseError("vertex record has a non-numeric coordinate",
                                 lineno, path) from None
        elif kind == "f":
            if len(tokens) < 4:
                raise ParseError("face record needs at least 3 vertices", lineno, path)
            idx = []
            for tok in tokens[1:]:
                head = tok.split("/", 1)[0]
                try:
                    i = int(head)
                except ValueError:
                    raise ParseError(f"face index '{tok}' is not an integer",
                                     lineno, path) from None
                if i <= 0:
                    raise ParseError("face indices must be positive (1-based)",
                                     lineno, path)
                idx.append(i - 1)
            for k in range(1, len(idx) - 1):  # fan triangulation
                faces.append([idx[0], idx[k], idx[k + 1]])
                face_lines.append(lineno)
        # vn/vt/o/g/s/usemtl/mtllib and anything else: ignored
    positions = np.asarray(positions, float).reshape(-1, 3)
    vertex_lines = (lineno for lineno, raw in enumerate(lines, start=1)
                    if raw.split("#", 1)[0].split()[:1] == ["v"])
    return _reference_finite(positions, vertex_lines, path), faces, face_lines


def reference_parse_off(lines, path) -> tuple:
    """The OFF reader as one loop over the significant lines, which
    converts and checks each record in turn."""
    def significant(start):
        for lineno in range(start, len(lines)):
            line = lines[lineno].split("#", 1)[0].strip()
            if line:
                yield lineno + 1, line

    stream = significant(0)
    try:
        lineno, header = next(stream)
    except StopIteration:
        raise ParseError("empty file, expected OFF header", 1, path) from None
    if header != "OFF":
        raise ParseError("expected OFF header", lineno, path)
    try:
        lineno, counts = next(stream)
    except StopIteration:
        raise ParseError("unexpected end of file, expected counts", len(lines) + 1, path) from None
    tokens = counts.split()
    if len(tokens) != 3:
        raise ParseError("counts line must be 'V F E'", lineno, path)
    try:
        n_vertices, n_faces, _ = (int(t) for t in tokens)
    except ValueError:
        raise ParseError("counts must be integers", lineno, path) from None
    if n_vertices < 0 or n_faces < 0:
        raise ParseError("counts must be nonnegative", lineno, path)

    # each vertex takes a line: a count beyond them ends at the last line
    positions = np.empty((min(n_vertices, len(lines)), 3))
    for i in range(n_vertices):
        try:
            lineno, line = next(stream)
        except StopIteration:
            raise ParseError(f"unexpected end of file, expected vertex {i}",
                             len(lines) + 1, path) from None
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError("vertex line must have 3 coordinates", lineno, path)
        try:
            positions[i] = [float(t) for t in tokens]
        except ValueError:
            raise ParseError("vertex line has a non-numeric coordinate",
                             lineno, path) from None
    _reference_finite(positions, (lineno for lineno, _ in islice(significant(0), 2, None)), path)

    faces = []
    face_lines = array("q")
    for i in range(n_faces):
        try:
            lineno, line = next(stream)
        except StopIteration:
            raise ParseError(f"unexpected end of file, expected face {i}",
                             len(lines) + 1, path) from None
        tokens = line.split()
        try:
            sides = int(tokens[0])
        except ValueError:
            raise ParseError("face line must start with its vertex count",
                             lineno, path) from None
        if sides < 3:
            raise ParseError("polygon needs at least 3 vertices", lineno, path)
        if len(tokens) != sides + 1:
            raise ParseError(f"face line declares {sides} vertices but lists "
                             f"{len(tokens) - 1}", lineno, path)
        try:
            idx = [int(t) for t in tokens[1:]]
        except ValueError:
            raise ParseError("face line has a non-integer index", lineno, path) from None
        for k in range(1, sides - 1):  # fan triangulation
            faces.append([idx[0], idx[k], idx[k + 1]])
            face_lines.append(lineno)
    return positions, faces, face_lines
