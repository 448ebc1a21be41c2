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

Every sum here is one arithmetic, `curvint.mesh.corner_terms`, and each
per-vertex operator is a slice of a whole-mesh result: laplacian is an
entry of laplacian_field, the others read the mesh's cached per-vertex
sums (`curvint.mesh.CornerKernel`), which the flow sums the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryVertexError
from .mesh import TriMesh, corner_terms, star_corners

__all__ = [
    "CurvatureSample",
    "star_sum",
    "vector_mean_curvature",
    "area_gradient",
    "laplacian",
    "curvature_field",
    "star_sums",
    "ring_areas",
    "laplacian_field",
]


@dataclass(frozen=True)
class CurvatureSample:
    """Discrete vector mean curvature at a vertex.

    `direction` is None (and near_minimal set) when |B| falls below
    tol_direction relative to the star scale sum(a_i)/sum(A_i): near a
    minimal configuration the direction B/|B| is ill-conditioned and is
    withheld rather than reported as a normal estimate.
    """

    vector: np.ndarray
    magnitude: float
    direction: np.ndarray | None
    near_minimal: bool


def row_norms(x: np.ndarray) -> np.ndarray:
    # one BLAS dot per row, rounded exactly as np.linalg.norm of that row
    # alone; norm(axis=1) and einsum round differently
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _sample(vec: np.ndarray, magnitude: float, scale: float,
            tol_direction: float) -> CurvatureSample:
    if magnitude < tol_direction * scale:
        return CurvatureSample(vec, magnitude, None, True)
    return CurvatureSample(vec, magnitude, vec / magnitude, False)


def star_sum(mesh: TriMesh, v: int) -> np.ndarray:
    """sum(a_i n_i) over the one-ring of v (no area division); defined for
    boundary vertices too."""
    star_corners(mesh, v)
    return mesh.corner_kernel().star_sums[v].copy()


def vector_mean_curvature(mesh: TriMesh, v: int, tol_direction: float = 1e-8,
                          allow_boundary: bool = False) -> CurvatureSample:
    """B = sum(a_i n_i) / sum(A_i) at vertex v.

    Boundary vertices are refused unless allow_boundary is set (the
    half-ring value is not meaningful as a curvature).
    """
    star_corners(mesh, v)
    if not allow_boundary and not mesh.topology.closed_stars[v]:
        raise BoundaryVertexError(f"vertex {v} lies on the mesh boundary")
    kernel = mesh.corner_kernel()
    ring_area = kernel.ring_areas[v]
    vec = kernel.star_sums[v] / ring_area
    return _sample(vec, float(np.linalg.norm(vec)),
                   float(kernel.edge_lengths[v] / ring_area), tol_direction)


def area_gradient(mesh: TriMesh, v: int) -> np.ndarray:
    """Gradient of total mesh area with respect to the position of v.

    Triangle i contributes -(a_i / 2) n_i, so this is exactly
    -star_sum(mesh, v) / 2, read from the corner kernel. Boundary
    vertices are fine; an isolated vertex gives zeros.
    """
    mesh.topology.vertex_corners(v)  # range check
    # 0.0 - x: a vanishing sum gives +0.0, never -0.0
    return 0.0 - 0.5 * mesh.corner_kernel().star_sums[v]


def laplacian(mesh: TriMesh, v: int, values) -> float:
    """Surface Laplacian of a per-vertex scalar field at interior vertex v:
    sum(a_i (g_i . n_i)) / sum(A_i) with g_i the constant gradient of the
    piecewise-linear interpolant on triangle i. Bitwise equal to entry v
    of laplacian_field.

    Exact zero for fields that are affine in space over a flat star;
    applied to a coordinate field it returns that component of B to
    roundoff. Refuses v as vector_mean_curvature does.
    """
    values = _validated_field(mesh, values)
    star_corners(mesh, v)
    if not mesh.topology.closed_stars[v]:
        raise BoundaryVertexError(f"vertex {v} lies on the mesh boundary")
    # degenerate faces and isolated vertices elsewhere give nan entries
    # that v does not read
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(laplacian_field(mesh, values)[v])


def curvature_field(mesh: TriMesh, tol_direction: float = 1e-8) -> list[CurvatureSample | None]:
    """vector_mean_curvature at every vertex; boundary vertices yield None.

    Raises what vector_mean_curvature raises at the first other vertex it
    refuses (isolated, with a degenerate incident face, or whose star is
    not one closed loop)."""
    boundary = mesh.boundary_vertices()
    kernel = mesh.corner_kernel()
    refused = ~boundary & (kernel.degenerate | ~mesh.topology.closed_stars)
    if refused.any():
        vector_mean_curvature(mesh, int(np.argmax(refused)))  # raises
    with np.errstate(invalid="ignore", divide="ignore"):
        vec = kernel.star_sums / kernel.ring_areas[:, None]
        scale = kernel.edge_lengths / kernel.ring_areas
    magnitude = row_norms(vec)
    return [None if boundary[v] else
            _sample(vec[v], float(magnitude[v]), float(scale[v]), tol_direction)
            for v in range(mesh.n_vertices)]


def star_sums(mesh: TriMesh) -> np.ndarray:
    """sum(a_i n_i) for every vertex at once (the corner kernel's)."""
    return mesh.corner_kernel().star_sums.copy()


def ring_areas(mesh: TriMesh) -> np.ndarray:
    """sum(A_i) over the one-ring of every vertex (the corner kernel's)."""
    return mesh.corner_kernel().ring_areas.copy()


def laplacian_field(mesh: TriMesh, values) -> np.ndarray:
    """Surface Laplacian of a per-vertex field at every interior vertex;
    boundary entries are nan."""
    values = _validated_field(mesh, values)
    m, norm_m, slots = corner_terms(mesh.positions, mesh.faces)
    slots = list(slots)
    mhat = m / norm_m
    # gradient of the linear interpolant: values times (mhat x e) / |m|
    terms = [values[corner][:, None] * np.cross(mhat, e)
             for corner, (e, _) in zip(mesh.faces.T, slots)]
    g = (terms[0] + terms[1] + terms[2]) / norm_m
    num = np.zeros(mesh.n_vertices)
    for corner, (_, an) in zip(mesh.faces.T, slots):
        np.add.at(num, corner, np.einsum("ij,ij->i", g, an))
    out = num / mesh.corner_kernel().ring_areas
    out[mesh.boundary_vertices()] = np.nan
    return out


def _validated_field(mesh: TriMesh, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError(
            f"field must have one value per vertex ({mesh.n_vertices}), got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    return values
