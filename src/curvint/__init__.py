"""curvint: contour-integral evaluation of the mean-curvature vector.

Numerically verifies, on analytic parametric patches, that the patch
integral of N * H equals the contour integral of the exterior in-surface
boundary normal, evaluates the shrinking-patch limit of that identity, and
carries the construction to triangle meshes as a discrete vector mean
curvature with an exact area-gradient property, a piecewise-linear surface
Laplacian, and an explicit mean-curvature-flow demonstrator.
"""

from .errors import (
    BoundaryVertexError,
    CollapseError,
    ContourError,
    CurvintError,
    DomainError,
    EvaluationError,
    IsolatedVertexError,
    MeshValidationError,
    ParseError,
)
from .numerics import (
    QuadratureRule,
    central_gradient,
    default_rule,
    gauss_legendre,
    panel_nodes,
)
from .surfaces import (
    Catenoid,
    Cylinder,
    Enneper,
    MongeGraph,
    ParametricSurface,
    Plane,
    Sphere,
    Torus,
    saddle,
    surface_from_name,
)
from .contour import (
    BoundaryPoint,
    DiskRegion,
    IdentityReport,
    LimitEstimate,
    RectRegion,
    boundary_point,
    contour_length,
    lhs_integral,
    region_area,
    rhs_integral,
    shrinking_limit,
    verify_identity,
)
from .mesh import (
    CornerKernel,
    MeshTopology,
    StarEntry,
    TriMesh,
    VertexStar,
    build_star,
    load_mesh,
    make_catenoid,
    make_grid,
    make_icosphere,
    make_primitive,
    make_tube,
    mesh_to_text,
    save_mesh,
    total_area,
)
from .discrete import (
    CurvatureSample,
    area_gradient,
    curvature_field,
    fd_area_gradient,
    laplacian,
    laplacian_field,
    ring_areas,
    star_sum,
    star_sums,
    vector_mean_curvature,
)
from .flow import FlowStep, FlowTrace, mcf_step, run_flow

__version__ = "0.1.0"
