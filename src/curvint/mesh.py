"""Indexed triangle meshes: data model, shared connectivity (topology),
the one-ring arithmetic (one column pass over the corners) and its
per-vertex sums, OBJ/OFF input/output, stock primitives, and one-ring
(vertex star) extraction.

The grid, tube and catenoid primitives are samples of the plane, the
cylinder and the catenoid of `curvint.surfaces` on a parameter grid, by
one sampler; the icosphere is a subdivided icosahedron."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    IsolatedVertexError,
    MeshValidationError,
    ParseError,
)
from .numerics import checked_positive, column_cross, column_norm
from .surfaces import Catenoid, Cylinder, Plane

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
        try:
            faces = np.array(faces, dtype=np.int64)
        except OverflowError:
            # an index beyond int64 names no vertex: mark it missing (on
            # this path only) for the check below to name its face
            faces = np.array([[i if 0 <= i < n_vertices else -1 for i in f] for f in faces],
                             dtype=np.int64)
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
        self.faces = _frozen(faces)
        # each corner's vertex, slot-major: the corner sums' bincount index
        self.by_slot = _frozen(faces.T.ravel())
        self.n_vertices = n_vertices

    @cached_property
    def boundary(self) -> np.ndarray:
        """Boolean mask of the vertices with incident faces whose star is
        not one closed loop (closed_stars): on an open edge, non-manifold,
        or in fewer than three faces. B needs that loop."""
        return _frozen((np.bincount(self.faces.ravel(), minlength=self.n_vertices) > 0)
                       & ~self.closed_stars)

    @cached_property
    def _corner_csr(self) -> tuple[np.ndarray, np.ndarray]:
        # corner c is faces.ravel()[c]; a stable sort keeps each vertex's
        # corners in incident-face order
        flat = self.faces.ravel()
        offsets = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.n_vertices), out=offsets[1:])
        return np.argsort(flat, kind="stable"), offsets

    @property
    def opposite(self) -> np.ndarray:
        """(3F, 2): per corner, the next two vertices of its face, i.e. the
        endpoints of the edge opposite it."""
        return self.faces[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)

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
        return _frozen(ok)

    def _one_loop(self, flat: np.ndarray) -> np.ndarray:
        # end 2c + k is endpoint k of the edge opposite corner c; each 6F
        # temporary is dropped once used, so a large mesh stays lean
        n = self.n_vertices
        keys = np.repeat(flat, 2) * n
        keys += self.opposite.ravel()
        order = np.argsort(keys)
        keys = keys[order]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        sizes = np.diff(first, append=len(keys))
        ok = np.ones(n, dtype=bool)
        ok[keys[first[sizes != 2]] // n] = False
        # pair the two ends that meet at each ring vertex: leaving an edge
        # through one end enters its partner's edge, which is left through
        # that edge's other end
        pairs = first[sizes == 2]
        del keys, first, sizes
        a, b = order[pairs].astype(np.int32), order[pairs + 1].astype(np.int32)
        del order, pairs
        step = np.arange(2 * len(flat), dtype=np.int32) ^ 1
        step[a], step[b] = b ^ 1, a ^ 1
        # pointer doubling: each end's label becomes the smallest corner
        # on its loop, so each loop has one corner labelled with itself
        label = np.arange(len(step), dtype=np.int32) >> 1
        span, longest = 1, int(np.bincount(flat).max())
        while span < longest:
            np.minimum(label, label[step], out=label)
            step = step[step]
            span *= 2
        loops = np.bincount(flat[label[0::2] == np.arange(len(flat))], minlength=n)
        return ok & (loops == 1)


class TriMesh:
    """Immutable triangle mesh: float64 positions (V, 3) and int face
    index triples (F, 3), none of them degenerate."""

    def __init__(self, positions, faces):
        """`faces` is an (F, 3) index array, or the MeshTopology of a mesh
        with as many vertices, which is shared rather than rebuilt. Makes
        the mesh's one corner pass (CornerKernel) and refuses the first
        face whose area is not finite, else the smallest face if its area
        is below MIN_FACE_AREA (MeshValidationError with `area` set)."""
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
        self.positions = _frozen(positions)
        self.faces = self.topology.faces
        # finite coordinates whose products overflow (about 1e77 and up)
        # give an inf or nan area, refused here
        with np.errstate(over="ignore", invalid="ignore"):
            self._corner_kernel = CornerKernel(self.positions, self.topology)
        areas = self._corner_kernel.face_areas
        if len(areas):
            finite = np.isfinite(areas)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise MeshValidationError(
                    f"face {bad} has a non-finite area ({areas[bad]})", face=bad)
            bad = int(np.argmin(areas))
            if areas[bad] < MIN_FACE_AREA:
                raise MeshValidationError(f"face {bad} is degenerate (area {areas[bad]:.3e})",
                                          face=bad, area=float(areas[bad]))

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_areas(self) -> np.ndarray:
        return self._corner_kernel.face_areas

    def vertex_faces(self, v: int) -> np.ndarray:
        """Indices of the faces incident to vertex v, ascending."""
        return self.topology.vertex_corners(v) // 3

    def boundary_vertices(self) -> np.ndarray:
        """Mask of the vertices with faces whose one-ring is not one closed loop."""
        return self.topology.boundary

    def is_closed(self) -> bool:
        """True when every vertex with faces has a one-ring that is one loop."""
        return not bool(self.boundary_vertices().any())

    def corner_kernel(self) -> "CornerKernel":
        """The per-vertex one-ring sums of the mesh's corner pass."""
        return self._corner_kernel

    def with_positions(self, positions) -> "TriMesh":
        """Same connectivity (and topology) with replaced coordinates,
        which are revalidated."""
        return TriMesh(positions, self.topology)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def triangle_areas(p0, p1, p2) -> np.ndarray:
    """Areas of the triangles with corners p0, p1, p2, each (n, 3): half
    the cross-product norms, row by row, computed on columns."""
    return 0.5 * column_norm(column_cross((p1 - p0).T, (p2 - p0).T))


def total_area(mesh: TriMesh) -> float:
    """Sum of the per-triangle areas (half cross-product magnitudes)."""
    return float(mesh.face_areas().sum())


# ---------------------------------------------------------------------------
# vertex stars


def corner_terms(positions: np.ndarray, faces: np.ndarray):
    """(m, |m|, e, an) of every face from one gather, coordinate first:
    m = (p1 - p0) x (p2 - p0) and |m| = 2A as (F,) columns; as (3 slots,
    F) columns, the edge e = p[c+2] - p[c+1] opposite corner c and a n =
    (e x m) / |m|, its length times its unit in-plane normal pointing
    away from the corner (nan on a degenerate face)."""
    x = np.take(positions.T, faces.T, axis=1)  # coordinate, slot, face
    e = np.empty_like(x)
    for c in range(3):
        np.subtract(x[:, c - 1], x[:, c - 2], out=e[:, c])
    m = column_cross(e[:, 2], x[:, 2] - x[:, 0])  # e[:, 2] is p1 - p0
    del x
    norm_m = column_norm(m)
    with np.errstate(invalid="ignore", divide="ignore"):
        an = [np.divide(a, norm_m, out=a) for a in column_cross(e, m)]
    return m, norm_m, e, an


class CornerKernel:
    """Per-vertex corner sums, one bincount per column over by_slot (slot
    by slot in face order): star_sums (sum of a n) and ring_areas (sum of
    the face areas A = face_areas) from one corner_terms pass, and on
    first use edge_lengths (sum of a) and curvature (B, their quotient).
    star_sums is nan at a face of zero area, which TriMesh refuses. No
    per-corner array is kept."""

    def __init__(self, positions: np.ndarray, topology: MeshTopology):
        _, norm_m, _, an = corner_terms(positions, topology.faces)
        self._positions, self._topology = positions, topology
        self.face_areas = _frozen(0.5 * norm_m)
        self.star_sums = _frozen(np.column_stack([self._sums(a.ravel()) for a in an]))
        self.ring_areas = _frozen(self._sums(np.tile(self.face_areas, 3)))

    def _sums(self, weights: np.ndarray) -> np.ndarray:  # float also without faces
        return np.bincount(self._topology.by_slot, weights,
                           minlength=self._topology.n_vertices).astype(float, copy=False)

    @cached_property
    def curvature(self) -> np.ndarray:
        """B = star_sums / ring_areas, (V, 3); inf or nan without a warning
        where the sums overflow and at an isolated vertex."""
        with np.errstate(all="ignore"):
            return _frozen(self.star_sums / self.ring_areas[:, None])

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        # einsum on rows keeps sum(a)'s bits; the column order rounds differently
        p = self._positions[self._topology.faces]
        e = [p[:, c - 1] - p[:, c - 2] for c in range(3)]
        squares = np.concatenate([np.einsum("ij,ij->i", x, x) for x in e])
        return _frozen(self._sums(np.sqrt(squares)))


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
    IsolatedVertexError when no face contains v."""
    corners = mesh.topology.vertex_corners(v)
    if len(corners) == 0:
        raise IsolatedVertexError(f"vertex {v} has no incident faces")
    return corners


def build_star(mesh: TriMesh, v: int) -> VertexStar:
    """Collect the one-ring of vertex v.

    Per incident triangle the entry holds the opposite-edge length a and
    the unit vector n in the triangle plane, perpendicular to that edge
    and pointing from v toward it, as corner_terms computes them. Raises
    IsolatedVertexError when no face contains v.
    """
    corners = star_corners(mesh, v)
    faces, areas = corners // 3, mesh.face_areas()
    _, _, e, an = corner_terms(mesh.positions, mesh.faces[faces])
    pick = (slice(None), corners % 3, np.arange(len(corners)))
    lengths = column_norm(e[pick])
    entries = tuple(StarEntry(int(f), float(areas[f]), (int(p), int(q)), float(a), n)
                    for f, (p, q), a, n in zip(faces, mesh.topology.opposite[corners],
                                                lengths, (np.stack(an)[pick] / lengths).T))
    return VertexStar(v, entries, bool(mesh.topology.boundary[v]))


# ---------------------------------------------------------------------------
# parsing and writing


def _finite(positions: np.ndarray, vertex_lines, path) -> np.ndarray:
    """positions, or a ParseError at the line of the first vertex with a
    non-finite coordinate; vertex_lines is an iterator over the line of
    each vertex, in order, read only then."""
    bad = ~np.isfinite(positions).all(axis=1)
    if bad.any():
        v = int(np.argmax(bad))
        raise ParseError(f"vertex {v} has a non-finite coordinate",
                         next(islice(vertex_lines, v, None)), path)
    return positions


def _block(lines, dtype, **kw):
    """lines as one (rows, columns) array, or None when numpy refuses a
    token or the column count changes."""
    try:
        return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2, **kw)
    except (ValueError, OverflowError):
        return None


def _off_block(lines) -> tuple | None:
    """(positions, faces, face_lines) of a regular OFF body, or None: the
    header `OFF`, the counts line, then exactly V lines of 3 finite
    coordinates and F lines `3 a b c`, no blank lines. Never raises."""
    if len(lines) < 4 or lines[0] != "OFF":
        return None
    try:
        n_vertices, n_faces, _ = (int(t) for t in lines[1].split())
    except ValueError:
        return None
    if min(n_vertices, n_faces) < 1 or len(lines) != 2 + n_vertices + n_faces:
        return None
    # numpy skips blank lines: a short block has fewer rows
    positions = _block(lines[2:2 + n_vertices], float)
    if positions is None or positions.shape != (n_vertices, 3) or not np.isfinite(positions).all():
        return None
    faces = _block(lines[2 + n_vertices:], np.int64)
    if faces is None or faces.shape != (n_faces, 4) or (faces[:, 0] != 3).any():
        return None
    return positions, faces[:, 1:], range(3 + n_vertices, 3 + n_vertices + n_faces)


def _obj_block(lines) -> tuple | None:
    """(positions, faces, face_lines) of a regular OBJ body, or None: V
    lines `v x y z` of finite coordinates (tokens after the third are
    ignored, as by the line loop), then F lines `f a b c` of positive
    indices, nothing else. Never raises."""
    heads = list(map(itemgetter(slice(0, 2)), lines))
    n_vertices = heads.count("v ")
    n_faces = len(lines) - n_vertices
    if (min(n_vertices, n_faces) < 1 or heads.count("f ") != n_faces
            or heads.index("f ") != n_vertices):
        return None
    positions = _block(lines[:n_vertices], float, usecols=(1, 2, 3))
    if positions is None or positions.shape != (n_vertices, 3) or not np.isfinite(positions).all():
        return None
    faces = _block(list(map(itemgetter(slice(2, None)), lines[n_vertices:])), np.int64)
    if faces is None or faces.shape != (n_faces, 3) or (faces <= 0).any():
        return None
    return positions, faces - 1, range(n_vertices + 1, n_vertices + 1 + n_faces)


def _parse_obj(text: str, path) -> tuple:
    lines = text.splitlines()
    block = None if "#" in text else _obj_block(lines)
    return block or _obj_line_loop(lines, path)


def _parse_off(text: str, path) -> tuple:
    lines = text.splitlines()
    block = None if "#" in text else _off_block(lines)
    return block or _off_line_loop(lines, path)


def _obj_line_loop(lines, path) -> tuple:
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
    return _finite(positions, vertex_lines, path), faces, face_lines


def _off_line_loop(lines, path) -> tuple:
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
    _finite(positions, (lineno for lineno, _ in islice(significant(0), 2, None)), path)

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

    The format is inferred from the file extension unless given. A
    regular body (OFF: header, counts, V coordinate lines, F lines
    `3 a b c`; OBJ: `v x y z` lines, then `f a b c` lines; no comment,
    no blank line) is converted as one numpy block; anything else goes
    through the line loop, the only code that reports errors. Parse
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
    positions, faces, face_lines = parse(text, path)
    # validated once every vertex is known: OBJ `v` records may follow `f`
    try:
        return TriMesh(positions, faces)
    except MeshValidationError as exc:
        if exc.face is None:
            raise
        where = f"{path}:" if path else "line "
        raise MeshValidationError(f"{where}{face_lines[exc.face]}: {exc}", face=exc.face,
                                  area=exc.area) from None


def mesh_to_text(mesh: TriMesh, fmt: str) -> str:
    """Serialize to OBJ or OFF text, one %-format per block of lines;
    coordinates keep 17 significant digits ("%.17g" rounds as
    format(x, ".17g")) so float64 values round-trip exactly."""
    fmt = _infer_format(None, fmt)
    coords = tuple(mesh.positions.ravel().tolist())
    if fmt == "obj":
        return (("v %.17g %.17g %.17g\n" * mesh.n_vertices) % coords
                + ("f %d %d %d\n" * mesh.n_faces) % tuple((mesh.faces + 1).ravel().tolist()))
    return (f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n"
            + ("%.17g %.17g %.17g\n" * mesh.n_vertices) % coords
            + ("3 %d %d %d\n" * mesh.n_faces) % tuple(mesh.faces.ravel().tolist()))


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


def _sample_surface(surface, us, vs) -> tuple[np.ndarray, np.ndarray]:
    """(positions, faces) of surface sampled on the grid us x vs: vertex
    i * len(vs) + j is surface.position(us[i], vs[j]), and each quad
    (i, j)-(i+1, j+1) is split along that diagonal into [a, b, c],
    [a, c, d], row by row; the column index wraps when v is periodic."""
    cols = len(vs)
    positions = surface.position(us[:, None], vs[None, :]).reshape(-1, 3)
    i = np.arange(len(us) - 1)[:, None] * cols
    j = np.arange(cols if surface.v_periodic else cols - 1)
    a, b = i + j, i + (j + 1) % cols
    faces = np.stack([a, b, b + cols, a, b + cols, a + cols], axis=-1).reshape(-1, 3)
    return positions, faces


def make_grid(n: int) -> TriMesh:
    """The plane z = 0 sampled on the unit square [0, 1]^2: (n+1)^2
    vertices, vertex j * (n+1) + i at (i/n, j/n), each cell split along
    the (i, j) -> (i+1, j+1) diagonal."""
    if n < 1:
        raise ValueError("grid resolution must be >= 1")
    coords = np.linspace(0.0, 1.0, n + 1)
    positions, faces = _sample_surface(Plane(), coords, coords)
    return TriMesh(positions[:, [1, 0, 2]], faces)


_G = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    [-1, _G, 0], [1, _G, 0], [-1, -_G, 0], [1, -_G, 0],
    [0, -1, _G], [0, 1, _G], [0, -1, -_G], [0, 1, -_G],
    [_G, 0, -1], [_G, 0, 1], [-_G, 0, -1], [-_G, 0, 1],
], dtype=float)
_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
])


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    return _ICO_VERTS.copy(), _ICO_FACES.copy()


def make_icosphere(level: int, radius: float = 1.0) -> TriMesh:
    """Icosahedron subdivided `level` times (edge midpoints), every vertex
    projected onto the sphere of the given radius. 20 * 4^level faces."""
    if not 0 <= level <= 6:
        raise ValueError("subdivision level must be between 0 and 6")
    radius = checked_positive(radius, "radius")
    verts, faces = _icosahedron()
    for _ in range(level):
        # edges ab, bc, ca of each face in turn; each edge's midpoint is
        # numbered in order of its first appearance
        a, b = faces.ravel(), faces[:, [1, 2, 0]].ravel()
        keys = np.minimum(a, b) * len(verts) + np.maximum(a, b)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ab, bc, ca = (len(verts) + rank[inverse]).reshape(-1, 3).T
        new = first[order]
        verts = np.concatenate([verts, 0.5 * (verts[a[new]] + verts[b[new]])])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    positions = verts * (radius / column_norm(verts.T))[:, None]
    return TriMesh(positions, faces)


def make_tube(radius: float, length: float, n_u: int, n_v: int) -> TriMesh:
    """The cylinder of the given radius along z sampled on z in [0,
    length] (n_u segments) times n_v angles from 0: an open tube whose
    two rims are boundary."""
    cylinder = Cylinder(radius)
    length = checked_positive(length, "length")
    if n_u < 1 or n_v < 3:
        raise ValueError("need n_u >= 1 and n_v >= 3")
    return TriMesh(*_sample_surface(cylinder, np.linspace(0.0, length, n_u + 1),
                                    np.linspace(0.0, 2.0 * math.pi, n_v, endpoint=False)))


def make_catenoid(waist: float, n_u: int, n_v: int) -> TriMesh:
    """The catenoid r(z) = c cosh(z / c) sampled on z in [-c, c] (n_u
    segments) times n_v angles from 0; a near-minimal fixture (vertices
    lie on a minimal surface). Sampled beyond Catenoid.u_range when c > 2."""
    catenoid = Catenoid(waist)
    if n_u < 1 or n_v < 3:
        raise ValueError("need n_u >= 1 and n_v >= 3")
    c = catenoid.waist
    return TriMesh(*_sample_surface(catenoid, np.linspace(-c, c, n_u + 1),
                                    np.linspace(0.0, 2.0 * math.pi, n_v, endpoint=False)))


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
