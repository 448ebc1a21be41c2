"""Indexed triangle meshes: data model, shared connectivity (topology),
the one-ring arithmetic and its per-vertex sums, OBJ/OFF input/output,
stock primitives, and one-ring (vertex star) extraction."""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    IsolatedVertexError,
    MeshValidationError,
    ParseError,
)

__all__ = [
    "TriMesh",
    "MeshTopology",
    "CornerKernel",
    "StarEntry",
    "VertexStar",
    "load_mesh",
    "save_mesh",
    "mesh_to_text",
    "make_grid",
    "make_icosphere",
    "make_tube",
    "make_catenoid",
    "make_primitive",
    "build_star",
    "total_area",
]

MIN_FACE_AREA = 1e-14


class MeshTopology:
    """Connectivity of one validated face array (F, 3) over n_vertices
    vertices. Meshes that differ only in positions share one instance
    (see TriMesh.with_positions); each part is computed on first use."""

    def __init__(self, faces, n_vertices: int):
        faces = np.array(faces, dtype=np.int64)
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshValidationError("faces must have shape (F, 3)")
        if faces.size:
            if faces.min() < 0 or faces.max() >= n_vertices:
                bad = int(np.argmax((faces < 0).any(axis=1) | (faces >= n_vertices).any(axis=1)))
                raise MeshValidationError(f"face {bad} references a missing vertex", face=bad)
            same = (faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2]) | (faces[:, 0] == faces[:, 2])
            if same.any():
                bad = int(np.argmax(same))
                raise MeshValidationError(f"face {bad} repeats a vertex", face=bad)
        faces.setflags(write=False)
        self.faces = faces
        self.n_vertices = n_vertices

    @cached_property
    def boundary(self) -> np.ndarray:
        """Boolean mask of vertices touching an edge used by one face only."""
        n = self.n_vertices
        a = self.faces.ravel()
        b = self.faces[:, [1, 2, 0]].ravel()
        keys, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
        open_edges = keys[counts == 1]
        mask = np.zeros(n, dtype=bool)
        mask[open_edges // n] = True
        mask[open_edges % n] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def _corner_csr(self) -> tuple[np.ndarray, np.ndarray]:
        # corner c is faces.ravel()[c]; a stable sort keeps each vertex's
        # corners in incident-face order
        flat = self.faces.ravel()
        offsets = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.n_vertices), out=offsets[1:])
        return np.argsort(flat, kind="stable"), offsets

    @cached_property
    def opposite(self) -> np.ndarray:
        """(3F, 2): per corner, the next two vertices of its face, i.e. the
        endpoints of the edge opposite it."""
        out = np.column_stack([self.faces[:, [1, 2, 0]].ravel(),
                               self.faces[:, [2, 0, 1]].ravel()])
        out.setflags(write=False)
        return out

    def vertex_corners(self, v: int) -> np.ndarray:
        """Corners (indices into faces.ravel()) at vertex v, in
        incident-face order."""
        if not 0 <= v < self.n_vertices:
            raise MeshValidationError(f"vertex {v} out of range")
        order, offsets = self._corner_csr
        return order[offsets[v]:offsets[v + 1]]

    @cached_property
    def closed_stars(self) -> np.ndarray:
        """Per vertex: do the edges opposite it in its incident faces form
        one closed loop? False for isolated vertices, for stars of fewer
        than three faces, and when a ring vertex is not met by exactly two
        opposite edges (which also rules out double edges)."""
        n = self.n_vertices
        flat = self.faces.ravel()
        ok = np.bincount(flat, minlength=n) >= 3
        if len(flat):
            ok &= self._one_loop(flat)
        ok.setflags(write=False)
        return ok

    def _one_loop(self, flat: np.ndarray) -> np.ndarray:
        # end 2c + k is endpoint k of the edge opposite corner c
        n = self.n_vertices
        ends = self.opposite.ravel()
        keys = np.repeat(flat, 2) * n + ends
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        sizes = np.diff(np.r_[first, len(keys)])
        ok = np.ones(n, dtype=bool)
        ok[keys[first[sizes != 2]] // n] = False
        # pair the two ends that meet at each ring vertex: leaving an edge
        # through one end enters its partner's edge, which is left through
        # that edge's other end
        pairs = first[sizes == 2]
        partner = np.arange(len(ends))
        partner[order[pairs]] = order[pairs + 1]
        partner[order[pairs + 1]] = order[pairs]
        step = partner ^ 1
        # pointer doubling: each end's label becomes the smallest corner
        # on its loop
        label = np.arange(len(ends)) >> 1
        span, longest = 1, int(np.bincount(flat).max())
        while span < longest:
            label = np.minimum(label, label[step])
            step = step[step]
            span *= 2
        # one loop <=> every corner of a vertex carries the label of its
        # first corner
        order, offsets = self._corner_csr
        split = label[0::2] != order[offsets[flat]]
        return ok & (np.bincount(flat, weights=split, minlength=n) == 0)


class TriMesh:
    """Immutable triangle mesh: float64 positions (V, 3) and int face
    index triples (F, 3)."""

    def __init__(self, positions, faces, allow_degenerate: bool = False):
        """`faces` is an (F, 3) index array, or the MeshTopology of a mesh
        with as many vertices, which is shared rather than rebuilt."""
        positions = np.array(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise MeshValidationError("positions must have shape (V, 3)")
        if not np.all(np.isfinite(positions)):
            raise MeshValidationError("positions must be finite")
        if isinstance(faces, MeshTopology):
            if faces.n_vertices != len(positions):
                raise MeshValidationError(f"positions must have shape ({faces.n_vertices}, 3)")
            self.topology = faces
        else:
            self.topology = MeshTopology(faces, len(positions))
        self.positions = positions
        self.faces = self.topology.faces
        self.positions.setflags(write=False)
        self._face_areas = None
        self._corner_kernel = None
        if not allow_degenerate and len(self.faces):
            areas = self.face_areas()
            if areas.min() < MIN_FACE_AREA:
                bad = int(np.argmin(areas))
                raise MeshValidationError(
                    f"face {bad} is degenerate (area {areas[bad]:.3e})", face=bad)

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def corners(self):
        """Positions of the three corners of every face, each (F, 3)."""
        return (self.positions[self.faces[:, 0]],
                self.positions[self.faces[:, 1]],
                self.positions[self.faces[:, 2]])

    def face_areas(self) -> np.ndarray:
        if self._face_areas is None:
            p0, p1, p2 = self.corners()
            areas = 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)
            areas.setflags(write=False)
            self._face_areas = areas
        return self._face_areas

    def vertex_faces(self, v: int) -> np.ndarray:
        """Indices of the faces incident to vertex v, ascending."""
        return self.topology.vertex_corners(v) // 3

    def boundary_vertices(self) -> np.ndarray:
        """Boolean mask of vertices touching an edge used by one face only."""
        return self.topology.boundary

    def is_closed(self) -> bool:
        return not bool(self.boundary_vertices().any())

    def corner_kernel(self) -> "CornerKernel":
        """The per-vertex one-ring sums, computed on first use."""
        if self._corner_kernel is None:
            self._corner_kernel = CornerKernel(self)
        return self._corner_kernel

    def with_positions(self, positions, allow_degenerate: bool = False) -> "TriMesh":
        """Same connectivity (and topology) with replaced coordinates,
        which are revalidated."""
        return TriMesh(positions, self.topology, allow_degenerate=allow_degenerate)


def total_area(mesh: TriMesh) -> float:
    """Sum of the per-triangle areas (half cross-product magnitudes)."""
    return float(mesh.face_areas().sum())


# ---------------------------------------------------------------------------
# vertex stars


def corner_terms(positions: np.ndarray, faces: np.ndarray):
    """(m, |m|, slots): per face p0, p1, p2, m = (p1 - p0) x (p2 - p0) and
    its norm |m| (F, 1), twice the area; slots is a one-pass iterator over
    c = 0, 1, 2 of (e, a n): the edge e = p[c+2] - p[c+1] opposite corner c
    and a n = (e x m) / |m|, its length times its unit in-plane normal
    pointing away from the corner (nan on a degenerate face). One slot at
    a time keeps the temporaries of a large mesh small."""
    p = [positions[faces[:, c]] for c in range(3)]
    m = np.cross(p[1] - p[0], p[2] - p[0])
    norm_m = np.linalg.norm(m, axis=1, keepdims=True)

    def slots():
        for c in range(3):
            e = p[(c + 2) % 3] - p[(c + 1) % 3]
            with np.errstate(invalid="ignore", divide="ignore"):
                an = np.cross(e, m) / norm_m
            yield e, an

    return m, norm_m, slots()


class CornerKernel:
    """Per-vertex sums over the corners of a mesh, from corner_terms:
    star_sums (sum of a n), ring_areas (sum of the face areas A),
    edge_lengths (sum of a), each added slot by slot in face order, and
    degenerate (a vertex of a face with A below MIN_FACE_AREA; its
    star_sums entry is nan, and star_corners refuses it)."""

    def __init__(self, mesh: TriMesh):
        nv = mesh.n_vertices
        areas = mesh.face_areas()
        self.star_sums = np.zeros((nv, 3))
        self.ring_areas = np.zeros(nv)
        self.edge_lengths = np.zeros(nv)
        _, _, slots = corner_terms(mesh.positions, mesh.faces)
        for corner, (e, an) in zip(mesh.faces.T, slots):
            for k in range(3):  # one column at a time: numpy's fast 1-D add.at
                np.add.at(self.star_sums[:, k], corner, an[:, k])
            np.add.at(self.ring_areas, corner, areas)
            np.add.at(self.edge_lengths, corner, np.sqrt(np.einsum("ij,ij->i", e, e)))
        self.degenerate = np.bincount(mesh.faces[areas < MIN_FACE_AREA].ravel(), minlength=nv) > 0
        for sums in vars(self).values():
            sums.setflags(write=False)


@dataclass(frozen=True)
class StarEntry:
    """One triangle of a one-ring: its index, area, the edge opposite the
    center vertex (endpoint indices and length), and the unit in-plane
    normal of that edge pointing away from the center."""

    face: int
    area: float
    opposite: tuple[int, int]
    edge_length: float
    normal: np.ndarray


@dataclass(frozen=True)
class VertexStar:
    """All triangles incident to a vertex; is_boundary is set when their
    opposite edges do not close into a single loop around it."""

    center: int
    entries: tuple[StarEntry, ...]
    is_boundary: bool

    @property
    def ring_area(self) -> float:
        return sum(e.area for e in self.entries)

    @property
    def total_edge_length(self) -> float:
        return sum(e.edge_length for e in self.entries)


def star_corners(mesh: TriMesh, v: int) -> np.ndarray:
    """Corners of vertex v in incident-face order. Raises
    IsolatedVertexError when no face contains v, MeshValidationError on
    the first degenerate incident face."""
    corners = mesh.topology.vertex_corners(v)
    if len(corners) == 0:
        raise IsolatedVertexError(f"vertex {v} has no incident faces")
    bad = corners[mesh.face_areas()[corners // 3] < MIN_FACE_AREA]
    if len(bad):
        fi = int(bad[0] // 3)
        raise MeshValidationError(f"face {fi} incident to vertex {v} is degenerate", face=fi)
    return corners


def build_star(mesh: TriMesh, v: int) -> VertexStar:
    """Collect the one-ring of vertex v.

    Per incident triangle the entry holds the opposite-edge length a and
    the unit vector n in the triangle plane, perpendicular to that edge
    and pointing from v toward it, as corner_terms computes them. Raises
    IsolatedVertexError when no face contains v, MeshValidationError on
    a degenerate incident face.
    """
    corners = star_corners(mesh, v)
    faces, areas = corners // 3, mesh.face_areas()
    _, _, slots = corner_terms(mesh.positions, mesh.faces[faces])
    e, an = (np.stack(x)[corners % 3, np.arange(len(corners))] for x in zip(*slots))
    lengths = np.sqrt(np.einsum("ij,ij->i", e, e))
    entries = tuple(StarEntry(int(f), float(areas[f]), (int(p), int(q)), float(a), n)
                    for f, (p, q), a, n in zip(faces, mesh.topology.opposite[corners],
                                                lengths, an / lengths[:, None]))
    return VertexStar(v, entries, not mesh.topology.closed_stars[v])


# ---------------------------------------------------------------------------
# parsing and writing


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_obj(lines, path) -> tuple:
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
    return np.asarray(positions, float).reshape(-1, 3), faces, face_lines


def _parse_off(lines, path) -> tuple:
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

    positions = np.empty((n_vertices, 3))
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


def _infer_format(name: str | None, fmt: str | None) -> str:
    if fmt:
        fmt = fmt.lower()
        if fmt not in ("obj", "off"):
            raise ValueError(f"unknown mesh format '{fmt}'")
        return fmt
    if name:
        suffix = Path(name).suffix.lower().lstrip(".")
        if suffix in ("obj", "off"):
            return suffix
    raise ValueError("cannot infer mesh format; pass fmt='obj' or 'off'")


def load_mesh(source, fmt: str | None = None) -> TriMesh:
    """Read an OBJ or OFF mesh from a path, text, or file-like object.

    The format is inferred from the file extension unless given. Parse
    errors, and validation errors of a face, carry its 1-based line
    number.
    """
    path = None
    try:
        if isinstance(source, (str, Path)) and "\n" not in str(source):
            path = str(source)
            text = Path(source).read_bytes().decode()
        elif isinstance(source, bytes):
            text = source.decode()
        elif hasattr(source, "read"):
            text = source.read()
            if isinstance(text, bytes):
                text = text.decode()
            path = getattr(source, "name", None)
        else:
            text = str(source)
    except UnicodeDecodeError:
        raise ParseError("not a text file", 1, path) from None
    parse = _parse_obj if _infer_format(path, fmt) == "obj" else _parse_off
    positions, faces, face_lines = parse(text.splitlines(), path)
    # validated once every vertex is known: OBJ `v` records may follow `f`
    try:
        return TriMesh(positions, faces)
    except MeshValidationError as exc:
        if exc.face is None:
            raise
        where = f"{path}:" if path else "line "
        raise MeshValidationError(f"{where}{face_lines[exc.face]}: {exc}", face=exc.face) from None


def mesh_to_text(mesh: TriMesh, fmt: str) -> str:
    """Serialize to OBJ or OFF text; coordinates keep 17 significant
    digits so float64 values round-trip exactly."""
    fmt = _infer_format(None, fmt)
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


def save_mesh(mesh: TriMesh, dest, fmt: str | None = None) -> None:
    """Write a mesh to a path or file-like object (format from the
    extension unless given)."""
    if isinstance(dest, (str, Path)):
        fmt = _infer_format(str(dest), fmt)
        Path(dest).write_text(mesh_to_text(mesh, fmt))
    else:
        fmt = _infer_format(getattr(dest, "name", None), fmt)
        dest.write(mesh_to_text(mesh, fmt))


# ---------------------------------------------------------------------------
# primitives


def make_grid(n: int) -> TriMesh:
    """Unit square [0, 1]^2 with (n+1)^2 vertices, each cell split along
    the (i, j) -> (i+1, j+1) diagonal."""
    if n < 1:
        raise ValueError("grid resolution must be >= 1")
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
    return TriMesh(positions, faces)


_ICO_VERTS = None
_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
])


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    global _ICO_VERTS
    if _ICO_VERTS is None:
        g = (1.0 + math.sqrt(5.0)) / 2.0
        _ICO_VERTS = np.array([
            [-1, g, 0], [1, g, 0], [-1, -g, 0], [1, -g, 0],
            [0, -1, g], [0, 1, g], [0, -1, -g], [0, 1, -g],
            [g, 0, -1], [g, 0, 1], [-g, 0, -1], [-g, 0, 1],
        ], dtype=float)
    return _ICO_VERTS.copy(), _ICO_FACES.copy()


def make_icosphere(level: int, radius: float = 1.0) -> TriMesh:
    """Icosahedron subdivided `level` times (edge midpoints), every vertex
    projected onto the sphere of the given radius. 20 * 4^level faces."""
    if not 0 <= level <= 6:
        raise ValueError("subdivision level must be between 0 and 6")
    if radius <= 0:
        raise ValueError("radius must be positive")
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
    return TriMesh(positions, faces)


def _revolution_mesh(profile_r, profile_z, n_v: int) -> TriMesh:
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
    return TriMesh(positions, faces)


def make_tube(radius: float, length: float, n_u: int, n_v: int) -> TriMesh:
    """Open cylinder of the given radius along z in [0, length]; n_u
    segments along the axis, n_v around. Both rims are boundary."""
    if radius <= 0 or length <= 0:
        raise ValueError("radius and length must be positive")
    if n_u < 1 or n_v < 3:
        raise ValueError("need n_u >= 1 and n_v >= 3")
    z = np.linspace(0.0, length, n_u + 1)
    return _revolution_mesh(np.full(n_u + 1, float(radius)), z, n_v)


def make_catenoid(waist: float, n_u: int, n_v: int) -> TriMesh:
    """Open catenoid r(z) = c cosh(z / c) sampled on z in [-c, c]; a
    near-minimal fixture (vertices lie on a minimal surface)."""
    if waist <= 0:
        raise ValueError("waist must be positive")
    if n_u < 1 or n_v < 3:
        raise ValueError("need n_u >= 1 and n_v >= 3")
    z = np.linspace(-waist, waist, n_u + 1)
    return _revolution_mesh(waist * np.cosh(z / waist), z, n_v)


def make_primitive(kind: str, **params) -> TriMesh:
    """Name-based primitive dispatch used by the command line."""
    key = kind.strip().lower()
    if key == "grid":
        return make_grid(int(params.get("n", 8)))
    if key == "icosphere":
        return make_icosphere(int(params.get("level", 2)), float(params.get("R", 1.0)))
    if key == "tube":
        return make_tube(float(params.get("R", 1.0)), float(params.get("L", 2.0)),
                         int(params.get("n_u", 8)), int(params.get("n_v", 16)))
    if key == "catenoid":
        return make_catenoid(float(params.get("c", 1.0)),
                             int(params.get("n_u", 8)), int(params.get("n_v", 16)))
    raise ValueError(f"unknown primitive '{kind}'")
