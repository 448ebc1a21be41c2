"""Mean-curvature-flow demonstrator: explicit Euler steps along the
discrete vector mean curvature.

Because the step direction is proportional to minus the area gradient,
flowing a closed mesh with a small enough time step is gradient descent on
total area; the trace records that descent. This is a property
demonstrator, not a production flow solver (no remeshing, no implicit
stepping, no singularity handling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryVertexError, CollapseError
from .mesh import MIN_FACE_AREA, CornerKernel, TriMesh

__all__ = ["FlowStep", "FlowTrace", "mcf_step", "run_flow"]


@dataclass(frozen=True)
class FlowStep:
    """Per-step statistics: state after `index` accepted steps."""

    index: int
    area: float
    max_curvature: float
    min_face_area: float


@dataclass(frozen=True)
class FlowTrace:
    """Flow history; stop_reason is None for a full run, otherwise names
    the stop condition that fired."""

    dt: float
    steps: tuple[FlowStep, ...]
    stop_reason: str | None = None


def _curvatures(mesh: TriMesh) -> np.ndarray:
    # curvature_field's B; the kernel is read once, so it is not cached
    # on the mesh, where one per live state would cost the flow memory
    kernel = CornerKernel(mesh)
    return kernel.star_sums / kernel.ring_areas[:, None]


def _require_closed(mesh: TriMesh):
    if not mesh.is_closed():
        raise BoundaryVertexError("mean curvature flow requires a closed mesh")


def _advance(mesh: TriMesh, dt: float, curvature: np.ndarray) -> TriMesh:
    if dt == 0:
        return mesh
    candidate = mesh.with_positions(mesh.positions + dt * curvature, allow_degenerate=True)
    areas = candidate.face_areas()
    worst = int(np.argmin(areas))
    if areas[worst] < MIN_FACE_AREA:
        raise CollapseError(
            f"face {worst} collapsed to area {areas[worst]:.3e}",
            face=worst, area=float(areas[worst]))
    return candidate


def mcf_step(mesh: TriMesh, dt: float) -> TriMesh:
    """Displace every vertex by dt * B and revalidate the mesh.

    Raises CollapseError if the step produces a face below the minimum
    area, BoundaryVertexError on an open mesh.
    """
    if dt < 0:
        raise ValueError("time step must be nonnegative")
    _require_closed(mesh)
    return _advance(mesh, dt, _curvatures(mesh))


def run_flow(mesh: TriMesh, dt: float, n_steps: int) -> tuple[FlowTrace, TriMesh]:
    """Run up to n_steps explicit steps, recording area, max |B| and the
    smallest face area after each accepted step (row 0 is the initial
    state).

    Stops early, with the reason recorded in the trace rather than
    raised, when a face collapses or when a step fails to decrease total
    area (a sign that dt is too large); the offending step is not
    accepted. B is computed once per state, for its trace row and for
    the step that leaves it.
    """
    if dt < 0:
        raise ValueError("time step must be nonnegative")
    if n_steps < 0:
        raise ValueError("step count must be nonnegative")
    _require_closed(mesh)

    def record(index: int, m: TriMesh, curvature: np.ndarray) -> FlowStep:
        b = np.linalg.norm(curvature, axis=1)
        return FlowStep(index, float(m.face_areas().sum()), float(b.max()),
                        float(m.face_areas().min()))

    current, curvature = mesh, _curvatures(mesh)
    steps = [record(0, current, curvature)]
    stop_reason = None
    for k in range(1, n_steps + 1):
        try:
            stepped = _advance(current, dt, curvature)
        except CollapseError as exc:
            stop_reason = f"collapse at step {k}: {exc}"
            break
        stepped_curvature = _curvatures(stepped)
        entry = record(k, stepped, stepped_curvature)
        if dt > 0 and entry.area >= steps[-1].area:
            stop_reason = f"area did not decrease at step {k} (dt too large)"
            break
        current, curvature = stepped, stepped_curvature
        steps.append(entry)
    return FlowTrace(dt, tuple(steps), stop_reason), current
