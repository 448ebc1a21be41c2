"""Indexed triangle meshes: data model, shared connectivity (topology),
the one-ring arithmetic (one column pass over the corners) and its
per-vertex sums, OBJ/OFF input/output, stock primitives, and one-ring
(vertex star) extraction. Each reader walks its lines once and converts
each section with one shared row converter (convert_rows).

The grid, tube and catenoid primitives are samples of the plane, the
cylinder and the catenoid of `curvint.surfaces` on a parameter grid, by
one sampler; the icosphere is a subdivided icosahedron."""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path

import numpy as np

from ._text import render
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
    (see TriMesh.with_positions); the faces per vertex (face_counts) are
    counted on construction, each other part on first use."""

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
        # faces per vertex, 0 at an isolated vertex
        self.face_counts = _frozen(np.bincount(faces.ravel(), minlength=n_vertices))

    @cached_property
    def boundary(self) -> np.ndarray:
        """Boolean mask of the vertices with incident faces whose star is
        not one closed loop (closed_stars): on an open edge, non-manifold,
        or in fewer than three faces. B needs that loop."""
        return _frozen((self.face_counts > 0) & ~self.closed_stars)

    @cached_property
    def _corner_csr(self) -> tuple[np.ndarray, np.ndarray]:
        # corner c is faces.ravel()[c]; a stable sort keeps each vertex's
        # corners in incident-face order
        flat = self.faces.ravel()
        offsets = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(self.face_counts, out=offsets[1:])
        return np.argsort(flat, kind="stable"), offsets

    @property
    def opposite(self) -> np.ndarray:
        """(3F, 2): per corner, the next two vertices of its face, i.e. the
        endpoints of the edge opposite it."""
        return self.faces[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)

    def vertex_corners(self, v: int) -> np.ndarray:
        """Corners (indices into faces.ravel()) at vertex v, in
        incident-face order. v is an int or a numpy integer, in range."""
        try:
            if isinstance(v, (bool, np.bool_)):  # numpy reads a bool as a mask
                raise TypeError
            v = operator.index(v)
        except TypeError:
            raise MeshValidationError(f"vertex index must be an integer, got {v!r}") from None
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
        flat = self.faces.ravel()
        ok = self.face_counts >= 3
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
        span, longest = 1, int(self.face_counts.max())
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


def significant_lines(text: str, comment: str | None = None) -> tuple:
    """(numbers, records) of the lines of text that hold a record: each
    line cut at its first `comment` character and stripped, kept when not
    empty, with its 1-based number (a range when every line is kept)."""
    lines = text.splitlines()
    if comment and comment in text:
        lines = [line.split(comment, 1)[0] for line in lines]
    records = list(map(str.strip, lines))
    if all(records):
        return range(1, len(records) + 1), records
    return [n for n, record in enumerate(records, start=1) if record], list(filter(None, records))


def convert_rows(records, numbers, convert, dtype, width: int, finish=np.asarray, **loadtxt):
    """(rows, row_lines, fault) of one section's records, found on lines
    `numbers`. One np.loadtxt pass converts the section when numpy reads
    every record and finish, which maps that block to rows, keeps one row
    of `width` values per record (a structured dtype's record is one
    value; numpy 1.23 to 1.26 read an integer such as "3.0" through float
    with a DeprecationWarning, which counts as a refusal here). Otherwise
    convert(record) gives each record's rows in Python,
    or raises ValueError with a message that names its fault, the only
    code that does: rows then lists the rows before that record, and
    fault is (message, line), else None."""
    if any(records):  # numpy warns on a section without data
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                block = finish(np.loadtxt(records, dtype=dtype, comments=None, ndmin=2, **loadtxt))
            if block.shape == (len(records), width):
                return block, numbers, None
        except (ValueError, OverflowError, DeprecationWarning):
            pass  # numpy refused a record: each is converted in Python
    rows, row_lines = [], []
    for line, record in zip(numbers, records):
        try:
            new = convert(record)
        except ValueError as exc:
            return rows, row_lines, (str(exc), line)
        rows += new
        row_lines += [line] * len(new)
    return rows, row_lines, None


def _numbers(tokens, kind, message: str) -> list:
    """kind(token) of every token, or ValueError(message)."""
    try:
        return [kind(t) for t in tokens]
    except ValueError:
        raise ValueError(message) from None


def _fan(polygon: list) -> list:
    """The triangles [p0, pk, pk+1] of a polygon's fan triangulation."""
    return [[polygon[0], polygon[k], polygon[k + 1]] for k in range(1, len(polygon) - 1)]


def _finite(rows, vertex_lines, path) -> np.ndarray:
    """rows as a (V, 3) float array, or a ParseError at the line of the
    first vertex with a non-finite coordinate."""
    positions = np.asarray(rows, dtype=float).reshape(-1, 3)
    bad = ~np.isfinite(positions).all(axis=1)
    if bad.any():
        v = int(np.argmax(bad))
        raise ParseError(f"vertex {v} has a non-finite coordinate", vertex_lines[v], path)
    return positions


def _off_vertex(record: str) -> list:
    tokens = record.split()
    if len(tokens) != 3:
        raise ValueError("vertex line must have 3 coordinates")
    return [_numbers(tokens, float, "vertex line has a non-numeric coordinate")]


def _off_face(record: str) -> list:
    tokens = record.split()
    sides, = _numbers(tokens[:1], int, "face line must start with its vertex count")
    if sides < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if len(tokens) != sides + 1:
        raise ValueError(f"face line declares {sides} vertices but lists {len(tokens) - 1}")
    return _fan(_numbers(tokens[1:], int, "face line has a non-integer index"))


def _parse_off(text: str, path) -> tuple:
    """(positions, faces, face_lines) of an OFF text. Its records (lines
    without `#` comments, blank lines skipped) are the header `OFF`, the
    counts `V F E`, V vertex lines of 3 coordinates and F polygon lines
    `n i1 .. in`, fan-triangulated; later records are ignored. Errors come
    in that order: header and counts, a faulty vertex line, too few vertex
    lines, a non-finite vertex, a faulty face line, too few face lines."""
    numbers, records = significant_lines(text, "#")

    def end_of_file(what: str) -> ParseError:
        return ParseError(f"unexpected end of file, expected {what}", len(text.splitlines()) + 1, path)

    def section(start: int, count: int, name: str, *conversion) -> tuple:
        # `count` records from `start`: a faulty record is reported before a missing one
        rows, row_lines, fault = convert_rows(records[start:start + count],
                                              numbers[start:start + count], *conversion)
        if fault:
            raise ParseError(*fault, path)
        if len(records) < start + count:
            raise end_of_file(f"{name} {len(records) - start}")
        return rows, row_lines

    if not records:
        raise ParseError("empty file, expected OFF header", 1, path)
    if records[0] != "OFF":
        raise ParseError("expected OFF header", numbers[0], path)
    if len(records) < 2:
        raise end_of_file("counts")
    counts = records[1].split()
    if len(counts) != 3:
        raise ParseError("counts line must be 'V F E'", numbers[1], path)
    try:
        n_vertices, n_faces, _ = (int(t) for t in counts)
    except ValueError:
        raise ParseError("counts must be integers", numbers[1], path) from None
    if n_vertices < 0 or n_faces < 0:
        raise ParseError("counts must be nonnegative", numbers[1], path)
    positions = _finite(*section(2, n_vertices, "vertex", _off_vertex, float, 3), path)
    faces, face_lines = section(2 + n_vertices, n_faces, "face", _off_face, np.int64, 3,
                                lambda block: block[block[:, 0] == 3, 1:])  # `3 a b c` only
    return positions, faces, face_lines


def _obj_vertex(record: str) -> list:
    tokens = record.split()
    if len(tokens) < 4:
        raise ValueError("vertex record needs 3 coordinates")
    return [_numbers(tokens[1:4], float, "vertex record has a non-numeric coordinate")]


def _obj_face(record: str) -> list:
    """The triangles of an `f` record, given without its `f`."""
    tokens = record.split()
    if len(tokens) < 3:
        raise ValueError("face record needs at least 3 vertices")
    polygon = []
    for token in tokens:
        try:
            i = int(token.split("/", 1)[0])
        except ValueError:
            raise ValueError(f"face index '{token}' is not an integer") from None
        if i <= 0:
            raise ValueError("face indices must be positive (1-based)")
        polygon.append(i - 1)
    return _fan(polygon)


def _parse_obj(text: str, path) -> tuple:
    """(positions, faces, face_lines) of an OBJ text. Its records (lines
    without `#` comments, blank lines skipped) are kept by their first
    token, in any order: `v x y z` (tokens after the third coordinate are
    ignored) and `f i1 .. in` (1-based indices, each may carry `/`
    suffixes), fan-triangulated; other records are ignored. Errors come in
    that order: the earliest faulty `v` or `f` record, a non-finite vertex."""
    numbers, records = significant_lines(text, "#")
    kinds = [record.split(None, 1)[0] for record in records]
    is_vertex, is_face = [kind == "v" for kind in kinds], [kind == "f" for kind in kinds]
    rows, vertex_lines, vertex_fault = convert_rows(
        list(compress(records, is_vertex)), list(compress(numbers, is_vertex)),
        _obj_vertex, float, 3, usecols=(1, 2, 3))
    faces, face_lines, face_fault = convert_rows(
        [record[1:] for record in compress(records, is_face)], list(compress(numbers, is_face)),
        _obj_face, np.int64, 3, lambda block: block[(block > 0).all(axis=1)] - 1)
    faults = [fault for fault in (vertex_fault, face_fault) if fault]
    if faults:
        raise ParseError(*min(faults, key=lambda fault: fault[1]), path)
    return _finite(rows, vertex_lines, path), faces, face_lines


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
        raise ValueError(f"cannot infer mesh format from '{name}'; use a .obj or .off name")
    raise ValueError("cannot infer mesh format; pass fmt='obj' or 'off'")


def load_mesh(source, fmt: str | None = None) -> TriMesh:
    """Read an OBJ or OFF mesh from a path, text, or file-like object.

    A Path, or a non-empty str without a newline, is a path; any other
    str is the text itself, so "" is an empty file and a one-line text
    needs its newline. The format is inferred from the file extension
    unless given. Each
    section (vertices, faces) is one np.loadtxt pass when numpy reads all
    of it, else converted record by record, with the same result. Parse
    errors, and validation errors of a face, carry its 1-based line
    number.
    """
    path, text = None, source
    if isinstance(source, Path) or isinstance(source, str) and source and "\n" not in source:
        path, text = str(source), Path(source).read_bytes()
    elif hasattr(source, "read"):
        path, text = getattr(source, "name", None), source.read()
    try:
        text = text.decode() if isinstance(text, bytes) else str(text)
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
    """Serialize to OBJ or OFF text, the vertex and the face lines each
    one table of `curvint._text`: coordinates print as "%.17g" % x, 17
    significant digits that round-trip every float64, indices as "%d"."""
    fmt = _infer_format(None, fmt)
    coords = list(mesh.positions.T)
    if fmt == "obj":
        return render(coords, " ", "v ") + render(list((mesh.faces + 1).T), " ", "f ")
    return (f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n"
            + render(coords, " ") + render(list(mesh.faces.T), " ", "3 "))


def save_mesh(mesh: TriMesh, dest, fmt: str | None = None) -> None:
    """Write a mesh to a path or file-like object (format from the
    extension unless given)."""
    path = isinstance(dest, (str, Path))
    text = mesh_to_text(mesh, _infer_format(str(dest) if path else getattr(dest, "name", None), fmt))
    if path:
        Path(dest).write_text(text)
    else:
        dest.write(text)


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
