"""Vector mean curvature on triangle meshes.

At an interior vertex O whose incident triangles have areas A_i, opposite
edges of length a_i, and in-plane unit normals n_i of those edges pointing
away from O, the discrete vector mean curvature is

    B = sum(a_i n_i) / sum(A_i).

The numerator equals exactly -2 times the gradient of total mesh area with
respect to the position of O, so B = 0 on flat meshes and at any critical
point of area. B points opposite the area gradient (inward on a convex
closed mesh), matching the analytic sign convention in `curvint.surfaces`
(outward-normal sphere has H = -2/R).

Note that the raw one-ring quotient is not a consistent pointwise
estimator of N * H: under refinement of a smooth surface it approaches a
valence- and shape-dependent multiple of it (2/3 at symmetric valence-6
configurations). The same holds for the piecewise-linear Laplacian below,
which shares its normalization.

Replacing n_i by the in-plane normal derivative of a piecewise-linear
vertex field along the opposite edge extends the formula to a surface
Laplacian; applied to the three coordinate fields it reproduces B exactly.

Every sum here is one column pass, `curvint.mesh.corner_terms`, and each
per-vertex operator is an entry of a whole-mesh result: laplacian of
laplacian_field, the others of the per-vertex sums of the corner pass
that every TriMesh makes on construction (`curvint.mesh.CornerKernel`).
curvature_arrays gives B at every vertex as arrays, which the command
line prints whole; curvature_field is their list view.

fd_area_gradient is the finite-difference oracle of that gradient for
the whole mesh, walked in blocks of vertices: each probe moves one
vertex, recomputes only the areas of its incident faces and sums all
face areas as total_area does, so it equals a central difference over
rebuilt meshes bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryVertexError, EvaluationError
from .mesh import TriMesh, corner_terms, star_corners, triangle_areas
from .numerics import check_nonnegative, checked_positive, column_cross

__all__ = [
    "CurvatureSample",
    "star_sum",
    "vector_mean_curvature",
    "area_gradient",
    "fd_area_gradient",
    "laplacian",
    "curvature_field",
    "star_sums",
    "ring_areas",
    "laplacian_field",
]


@dataclass(frozen=True)
class CurvatureSample:
    """Discrete vector mean curvature at a vertex.

    `direction` is None (and near_minimal set) when |B| is at most
    tol_direction relative to the star scale sum(a_i)/sum(A_i), as an
    exactly zero B is at any tolerance: near a minimal configuration the
    direction B/|B| is ill-conditioned and is withheld rather than
    reported as a normal estimate.
    """

    vector: np.ndarray
    magnitude: float
    direction: np.ndarray | None
    near_minimal: bool


def row_norms(x: np.ndarray) -> np.ndarray:
    # one BLAS dot per row, rounded exactly as np.linalg.norm of that row
    # alone; norm(axis=1) and einsum round differently
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def star_sum(mesh: TriMesh, v: int) -> np.ndarray:
    """sum(a_i n_i) over the one-ring of v (no area division); defined for
    boundary vertices too."""
    star_corners(mesh, v)
    return mesh.corner_kernel().star_sums[v].copy()


def _refuse_vertex(mesh: TriMesh, v: int, allow_boundary: bool = False) -> None:
    star_corners(mesh, v)
    if not allow_boundary and mesh.topology.boundary[v]:
        raise BoundaryVertexError(f"vertex {v} lies on the mesh boundary")


def vector_mean_curvature(mesh: TriMesh, v: int, tol_direction: float = 1e-8,
                          allow_boundary: bool = False) -> CurvatureSample:
    """B = sum(a_i n_i) / sum(A_i) at vertex v, row v of curvature_arrays.

    Boundary vertices are refused unless allow_boundary is set (the
    half-ring value is not meaningful as a curvature).
    """
    check_nonnegative(tol_direction, "tol_direction")
    _refuse_vertex(mesh, v, allow_boundary)
    return _samples(*_curvature_rows(mesh, [v], tol_direction))[0]


def area_gradient(mesh: TriMesh, v: int) -> np.ndarray:
    """Gradient of total mesh area with respect to the position of v.

    Triangle i contributes -(a_i / 2) n_i, so this is exactly
    -star_sum(mesh, v) / 2, read from the corner kernel. Boundary
    vertices are fine; an isolated vertex gives zeros.
    """
    mesh.topology.vertex_corners(v)  # range check
    # 0.0 - x: a vanishing sum gives +0.0, never -0.0
    return 0.0 - 0.5 * mesh.corner_kernel().star_sums[v]


# floats in one block of finite-difference probe rows (256 KB)
FD_BLOCK = 1 << 15


def fd_area_gradient(mesh: TriMesh, h: float) -> np.ndarray:
    """Central difference of the total area with respect to every vertex
    position, (V, 3): entry (v, k) is (A(x + h e_k) - A(x - h e_k)) / 2h
    with only vertex v moved, bitwise equal to central_gradient of
    total_area over meshes rebuilt with v moved.

    A probe (v, k, +/-) is a row of the mesh's face areas with those of
    the faces incident to v recomputed by triangle_areas, as the rebuilt
    mesh's face_areas would; rows are summed whole, as total_area sums.
    The vertices are walked in blocks of at most FD_BLOCK // F (at least
    one): one gather of the block's corners serves its six probes, each a
    C-contiguous (rows, F) block. An isolated vertex gives zeros. Raises
    EvaluationError at the first probe, in (v, k, +/-) order, whose total
    area is not finite.
    """
    h = checked_positive(h, "step h")
    positions, faces = mesh.positions, mesh.faces
    order, offsets = mesh.topology._corner_csr
    steps = h * np.eye(3)
    rows = max(1, FD_BLOCK // max(len(faces), 1))
    totals = np.empty(6 * mesh.n_vertices)
    with np.errstate(over="ignore", invalid="ignore"):
        areas = mesh.face_areas()
        for start in range(0, mesh.n_vertices, rows):
            stop = min(start + rows, mesh.n_vertices)
            # every corner of the block's vertices, with its owner row and face
            corner = order[offsets[start]:offsets[stop]]
            owner, face = faces.ravel()[corner] - start, corner // 3
            p, at = positions[faces[face]], (np.arange(len(corner)), corner % 3)
            x = positions[start:stop]
            for probe in range(6):
                # the whole corner set to x +/- step, as a rebuilt mesh holds it
                step = steps[probe // 2]
                p[at] = (x - step if probe % 2 else x + step)[owner]
                block = np.empty((stop - start, len(areas)))
                block[:] = areas
                block[owner, face] = triangle_areas(p[:, 0], p[:, 1], p[:, 2])
                totals[6 * start + probe:6 * stop:6] = block.sum(axis=1)
    bad = ~np.isfinite(totals)
    if bad.any():
        first = int(np.argmax(bad))
        raise EvaluationError("total area is not finite", where=(
            f"vertex {first // 6} moved by {'+-'[first % 2]}h along {'xyz'[first % 6 // 2]}"))
    return (totals[0::2] - totals[1::2]).reshape(-1, 3) / (2.0 * h)


def laplacian(mesh: TriMesh, v: int, values) -> float:
    """Entry v of laplacian_field, the surface Laplacian of a per-vertex
    scalar field. Refuses the field, then v as vector_mean_curvature
    does, then a Laplacian that is not finite (EvaluationError).

    Each call runs the whole-mesh pass (about 7 ms on a level-5
    icosphere): a caller that loops over vertices should call
    laplacian_field once instead.
    """
    values = _validated_field(mesh, values)
    _refuse_vertex(mesh, v)
    out = float(_laplacian(mesh, values)[v])
    if not np.isfinite(out):
        raise EvaluationError("Laplacian is not finite", where=f"vertex {v}")
    return out


def refuse_isolated(mesh: TriMesh) -> np.ndarray:
    """The mesh's boundary mask, after raising IsolatedVertexError at the
    first vertex without faces."""
    boundary = mesh.boundary_vertices()
    isolated = mesh.topology.face_counts == 0
    if isolated.any():
        star_corners(mesh, int(np.argmax(isolated)))  # raises
    return boundary


def curvature_arrays(mesh: TriMesh, tol_direction: float = 1e-8):
    """(B, |B|, near_minimal, boundary) at every vertex, the arrays of
    vector_mean_curvature; rows of boundary vertices are not meaningful.

    Raises IsolatedVertexError at the first isolated vertex, as
    vector_mean_curvature does."""
    check_nonnegative(tol_direction, "tol_direction")
    boundary = refuse_isolated(mesh)
    return (*_curvature_rows(mesh, slice(None), tol_direction), boundary)


def _curvature_rows(mesh: TriMesh, rows, tol_direction: float):
    """(B, |B|, near_minimal) at the given vertices: |B| is at most
    tol_direction times the star scale sum(a_i) / sum(A_i)."""
    kernel = mesh.corner_kernel()
    with np.errstate(all="ignore"):  # silent where the sums or the threshold overflow
        vec = kernel.curvature[rows]
        magnitude = row_norms(vec)
        scale = kernel.edge_lengths[rows] / kernel.ring_areas[rows]
        return vec, magnitude, magnitude <= tol_direction * scale


def _samples(vec: np.ndarray, magnitude: np.ndarray, near_minimal: np.ndarray) -> list:
    return [CurvatureSample(b, float(r), None if n else b / r, bool(n))
            for b, r, n in zip(vec, magnitude, near_minimal)]


def curvature_field(mesh: TriMesh, tol_direction: float = 1e-8) -> list[CurvatureSample | None]:
    """vector_mean_curvature at every vertex, the list view of
    curvature_arrays; boundary vertices yield None."""
    *rows, boundary = curvature_arrays(mesh, tol_direction)
    return [None if b else sample for b, sample in zip(boundary, _samples(*rows))]


def star_sums(mesh: TriMesh) -> np.ndarray:
    """sum(a_i n_i) for every vertex at once (the corner kernel's)."""
    return mesh.corner_kernel().star_sums.copy()


def ring_areas(mesh: TriMesh) -> np.ndarray:
    """sum(A_i) over the one-ring of every vertex (the corner kernel's)."""
    return mesh.corner_kernel().ring_areas.copy()


def laplacian_field(mesh: TriMesh, values) -> np.ndarray:
    """Surface Laplacian of a per-vertex scalar field at every interior
    vertex v: sum(a_i (g_i . n_i)) / sum(A_i) over v's incident faces, with
    g_i the constant gradient of the piecewise-linear interpolant on face
    i. Exact zero for fields that are affine in space over a flat star;
    applied to a coordinate field it gives that component of B to
    roundoff. Boundary entries are nan. Entries are inf or nan, without a
    warning, where the field's terms overflow and at an isolated vertex."""
    out = _laplacian(mesh, _validated_field(mesh, values))
    out[mesh.boundary_vertices()] = np.nan
    return out


def _laplacian(mesh: TriMesh, values: np.ndarray) -> np.ndarray:
    """Per vertex, the Laplacian's sum over its faces divided by the
    kernel's ring area."""
    faces = mesh.faces
    m, norm_m, e, an = corner_terms(mesh.positions, faces)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # gradient of the linear interpolant: values times (mhat x e) / |m|
        terms = [values[faces.T] * t for t in column_cross([mk / norm_m for mk in m], e)]
        g = np.stack([(t[0] + t[1] + t[2]) / norm_m for t in terms], axis=1)
        # g . a n by einsum on rows; both sums add slot-major, as CornerKernel's
        dots = [np.einsum("ij,ij->i", g, an_c) for an_c in np.stack(an, axis=-1)]
        num = np.bincount(faces.T.ravel(), np.concatenate(dots), minlength=mesh.n_vertices)
        return num / mesh.corner_kernel().ring_areas


def _validated_field(mesh: TriMesh, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError(
            f"field must have one value per vertex ({mesh.n_vertices}), got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    return values
