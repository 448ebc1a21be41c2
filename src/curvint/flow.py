"""Mean-curvature-flow demonstrator: explicit Euler steps along the
discrete vector mean curvature.

Because the step direction is proportional to minus the area gradient,
flowing a closed mesh with a small enough time step is gradient descent on
total area; the trace records that descent. This is a property
demonstrator, not a production flow solver (no remeshing, no implicit
stepping, no singularity handling); each state costs one corner pass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BoundaryVertexError, CollapseError, MeshValidationError
from .mesh import TriMesh
from .numerics import checked_count, checked_real, column_norm

__all__ = ["FlowStep", "FlowTrace", "mcf_step", "check_flow", "run_flow"]


class FlowStep(NamedTuple):
    """Per-step statistics: state after `index` accepted steps."""

    index: int
    area: float
    max_curvature: float
    min_face_area: float


class FlowTrace(NamedTuple):
    """Flow history; stop_reason is None for a full run, otherwise names
    the stop condition that fired."""

    dt: float
    steps: tuple[FlowStep, ...]
    stop_reason: str | None = None


def _advance(mesh: TriMesh, dt: float, curvature: np.ndarray) -> TriMesh:
    if dt == 0:
        return mesh
    try:
        return mesh.with_positions(mesh.positions + dt * curvature)
    except MeshValidationError as exc:
        if exc.area is None:  # not a degenerate face
            raise
        raise CollapseError(f"face {exc.face} collapsed to area {exc.area:.3e}",
                            face=exc.face, area=exc.area) from None


def mcf_step(mesh: TriMesh, dt: float) -> TriMesh:
    """Displace every vertex by dt * B and revalidate the mesh.

    Refuses dt and the mesh as check_flow does; raises CollapseError if
    the step produces a face below the minimum area, and
    MeshValidationError if its positions or a face area overflow.
    """
    return _advance(mesh, check_flow(mesh, dt, 1), mesh.corner_kernel().curvature)


def check_flow(mesh: TriMesh, dt: float, n_steps: int) -> float:
    """The one gate of a flow, which run_flow and mcf_step pass before
    their first step; returns dt as a float. Raises ValueError unless dt
    is a finite, nonnegative real number (checked_real), then unless
    n_steps is an integer >= 0 (checked_count); BoundaryVertexError
    or IsolatedVertexError, naming the vertex, unless every one-ring
    closes into one loop; MeshValidationError for a mesh without faces."""
    dt = checked_real(dt, "time step dt", 0.0)
    checked_count(n_steps, "step count n_steps", 0)
    try:
        mesh.topology.check(boundary=True)
    except BoundaryVertexError as exc:
        raise BoundaryVertexError(f"mean curvature flow requires a closed mesh: {exc}") from None
    if not mesh.n_faces:
        raise MeshValidationError("mean curvature flow requires a mesh with faces")
    return dt


def run_flow(mesh: TriMesh, dt: float, n_steps: int) -> tuple[FlowTrace, TriMesh]:
    """Run up to n_steps explicit steps, each one mcf_step call, recording
    area, max |B| and the smallest face area after each accepted step
    (row 0 is the initial state).

    Stops early, with the reason recorded in the trace rather than
    raised, when a face collapses or when a step fails to decrease total
    area (a sign that dt is too large); the offending step is not
    accepted. Each state is a TriMesh, whose one corner pass gives its B
    and face areas (`curvint.mesh.CornerKernel`) and refuses a collapsed
    face. Refuses its arguments, and records dt, as check_flow returns it.
    """
    dt = check_flow(mesh, dt, n_steps)

    def record(index: int, m: TriMesh) -> FlowStep:
        # column_norm, not row_norms: the two round some rows' |B| differently
        b = column_norm(m.corner_kernel().curvature.T)
        return FlowStep(index, float(m.face_areas().sum()), float(b.max()),
                        float(m.face_areas().min()))

    current = mesh
    steps = [record(0, current)]
    stop_reason = None
    for k in range(1, n_steps + 1):
        try:
            stepped = mcf_step(current, dt)
        except CollapseError as exc:
            stop_reason = f"collapse at step {k}: {exc}"
            break
        entry = record(k, stepped)
        if dt > 0 and entry.area >= steps[-1].area:
            stop_reason = f"area did not decrease at step {k} (dt too large)"
            break
        current = stepped
        steps.append(entry)
    return FlowTrace(dt, tuple(steps), stop_reason), current
