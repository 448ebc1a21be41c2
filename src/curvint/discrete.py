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

complex_step_area_gradient is the oracle of that gradient for the whole
mesh: the complex-step derivative of the face-area formula, exact to
round-off and independent of the corner pass it checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import EvaluationError
from .mesh import TriMesh, corner_terms, triangle_areas
from .numerics import checked_real, column_cross

__all__ = [
    "CurvatureSample",
    "star_sum",
    "vector_mean_curvature",
    "area_gradient",
    "complex_step_area_gradient",
    "laplacian",
    "curvature_field",
    "star_sums",
    "ring_areas",
    "laplacian_field",
]


class CurvatureSample(NamedTuple):
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
    mesh.topology.check(v)
    return mesh.corner_kernel().star_sums[v].copy()


def vector_mean_curvature(mesh: TriMesh, v: int, tol_direction: float = 1e-8,
                          allow_boundary: bool = False) -> CurvatureSample:
    """B = sum(a_i n_i) / sum(A_i) at vertex v, row v of curvature_arrays.

    Boundary vertices are refused unless allow_boundary is set (the
    half-ring value is not meaningful as a curvature).
    """
    tol_direction = checked_real(tol_direction, "tol_direction", 0.0)
    mesh.topology.check(v, boundary=not allow_boundary)
    return _samples(*_curvature_rows(mesh, [v], tol_direction))[0]


def area_gradient(mesh: TriMesh, v: int) -> np.ndarray:
    """Gradient of total mesh area with respect to the position of v.

    Triangle i contributes -(a_i / 2) n_i, so this is exactly
    -star_sum(mesh, v) / 2, read from the corner kernel. Boundary
    vertices are fine; an isolated vertex gives zeros.
    """
    mesh.topology.check(v, isolated=False)
    # 0.0 - x: a vanishing sum gives +0.0, never -0.0
    return 0.0 - 0.5 * mesh.corner_kernel().star_sums[v]


# no difference is taken, so the step may lie far below round-off; the
# truncation, about (h / edge length)^2, is nil on any TriMesh, whose
# faces have areas of 1e-14 or more
_STEP = 1e-30


def complex_step_area_gradient(mesh: TriMesh) -> np.ndarray:
    """Gradient of the total area with respect to every vertex position,
    (V, 3), by the complex-step derivative dA/dx = Im A(x + i h e) / h.
    Each of 9 passes, one per corner slot and coordinate, moves that
    coordinate of every face's corner in the slot by i h and adds the
    imaginary parts of triangle_areas (whose unconjugated m . m continues
    |m|^2 analytically) onto the corners' vertices: it differentiates
    that formula, not the corner kernel's a n. An isolated vertex gives
    zeros."""
    faces = mesh.faces
    corners = mesh.positions[faces].astype(complex)  # face, slot, coordinate
    grad = np.zeros((mesh.n_vertices, 3))
    for slot in range(3):
        for k in range(3):
            corners.imag[:, slot, k] = _STEP
            area = triangle_areas(corners[:, 0], corners[:, 1], corners[:, 2])
            corners.imag[:, slot, k] = 0.0
            grad[:, k] += np.bincount(faces[:, slot], area.imag / _STEP, minlength=len(grad))
    return grad


def laplacian(mesh: TriMesh, v: int, values) -> float:
    """Entry v of laplacian_field, the surface Laplacian of a per-vertex
    scalar field. Refuses the field, then v as vector_mean_curvature
    does, then a Laplacian that is not finite (EvaluationError).

    Each call runs the whole-mesh pass (about 7 ms on a level-5
    icosphere): a caller that loops over vertices should call
    laplacian_field once instead.
    """
    values = _validated_field(mesh, values)
    mesh.topology.check(v, boundary=True)
    return float(finite_laplacian(_laplacian(mesh, values), [v])[0])


def finite_laplacian(lap: np.ndarray, vertices) -> np.ndarray:
    """lap[vertices], refusing the first entry that is not finite."""
    bad = np.flatnonzero(~np.isfinite(lap[vertices]))
    if len(bad):
        raise EvaluationError("Laplacian is not finite", where=f"vertex {vertices[bad[0]]}")
    return lap[vertices]


def curvature_arrays(mesh: TriMesh, tol_direction: float = 1e-8):
    """(B, |B|, near_minimal, boundary) at every vertex, the arrays of
    vector_mean_curvature; rows of boundary vertices are not meaningful.

    Raises IsolatedVertexError at the first isolated vertex, as
    vector_mean_curvature does."""
    tol_direction = checked_real(tol_direction, "tol_direction", 0.0)
    boundary = mesh.topology.check()
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
