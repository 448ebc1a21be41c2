import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvint as ci
from curvint import BoundaryVertexError, CollapseError, IsolatedVertexError, MeshValidationError
from curvint.cli import run

import curvint.flow as flow_mod
from curvint.flow import _advance
from curvint.mesh import CornerKernel

from conftest import (_reference_step, bowtie_meshes, isolated_and_boundary, jiggled_icosphere,
                      opened_meshes, reference_mcf_step, reference_run_flow)


def test_open_mesh_refused():
    g = ci.make_grid(4)
    message = "mean curvature flow requires a closed mesh: vertex 0 lies on the mesh boundary"
    with pytest.raises(BoundaryVertexError, match=f"^{message}$"):
        ci.mcf_step(g, 1e-3)
    with pytest.raises(BoundaryVertexError, match=f"^{message}$"):
        ci.run_flow(g, 1e-3, 3)


@pytest.mark.parametrize("meshes", [opened_meshes(), bowtie_meshes()], ids=["opened", "bowtie"])
@settings(max_examples=40)
@given(data=st.data())
def test_open_and_bowtie_meshes_refused_naming_their_lowest_boundary_vertex(meshes, data):
    mesh, refused = data.draw(meshes)
    message = ("^mean curvature flow requires a closed mesh: "
               f"vertex {refused.min()} lies on the mesh boundary$")
    for flow in (lambda: ci.check_flow(mesh, 1e-3, 3), lambda: ci.run_flow(mesh, 1e-3, 3),
                 lambda: ci.mcf_step(mesh, 1e-3)):
        with pytest.raises(BoundaryVertexError, match=message):
            flow()


def test_mesh_without_faces_refused():
    # no vertex: refused by the flow gate, before numpy meets an empty
    # array; vertices without faces: the first is named, as before
    empty = ci.load_mesh("OFF\n0 0 0\n", fmt="off")
    message = "^mean curvature flow requires a mesh with faces$"
    for flow in (lambda: ci.check_flow(empty, 1e-3, 2), lambda: ci.run_flow(empty, 1e-3, 2),
                 lambda: ci.run_flow(empty, 0.0, 0), lambda: ci.mcf_step(empty, 1e-3)):
        with pytest.raises(MeshValidationError, match=message):
            flow()
    # the arguments are refused first
    with pytest.raises(ValueError, match="^time step dt must be nonnegative, got -1.0$"):
        ci.run_flow(empty, -1.0, 2)
    with pytest.raises(ValueError, match="^step count n_steps must be an integer >= 0, got -1$"):
        ci.check_flow(empty, 1e-3, -1)
    bare = ci.TriMesh(np.eye(3), np.zeros((0, 3), dtype=int))
    with pytest.raises(IsolatedVertexError, match="^vertex 0 has no incident faces$"):
        ci.run_flow(bare, 1e-3, 2)


def test_isolated_vertex_refused():
    base = ci.make_icosphere(1, 1.0)
    mesh = ci.TriMesh(np.vstack([base.positions, [[5.0, 5.0, 5.0]]]), base.faces)
    assert mesh.is_closed()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IsolatedVertexError, match="^vertex 42 has no incident faces$"):
            ci.run_flow(mesh, 1e-3, 3)
        with pytest.raises(IsolatedVertexError, match="^vertex 42 has no incident faces$"):
            ci.mcf_step(mesh, 1e-3)


def test_icosphere_moves_inward():
    mesh = ci.make_icosphere(3, 1.0)
    stepped = ci.mcf_step(mesh, 1e-3)
    displacement = stepped.positions - mesh.positions
    inner = np.einsum("ij,ij->i", mesh.positions, displacement)
    assert np.all(inner < 0.0)


def test_step_is_linear_in_dt():
    mesh = ci.make_icosphere(2, 1.0)
    d1 = ci.mcf_step(mesh, 1e-3).positions - mesh.positions
    d2 = ci.mcf_step(mesh, 5e-4).positions - mesh.positions
    ratio = np.linalg.norm(d1) / np.linalg.norm(d2)
    assert abs(ratio - 2.0) <= 1e-9


def test_zero_time_step_is_identity():
    mesh = ci.make_icosphere(1, 1.0)
    assert ci.mcf_step(mesh, 0.0) is mesh
    trace, final = ci.run_flow(mesh, 0.0, 5)
    assert trace.stop_reason is None
    assert len(trace.steps) == 6
    areas = {s.area for s in trace.steps}
    assert len(areas) == 1
    np.testing.assert_array_equal(final.positions, mesh.positions)


def test_negative_dt_rejected():
    mesh = ci.make_icosphere(1, 1.0)
    with pytest.raises(ValueError):
        ci.mcf_step(mesh, -1e-3)
    with pytest.raises(ValueError):
        ci.run_flow(mesh, -1e-3, 2)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_dt_rejected_naming_it(dt):
    mesh = ci.make_icosphere(1, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for flow in (lambda: ci.mcf_step(mesh, dt), lambda: ci.run_flow(mesh, dt, 2)):
            with pytest.raises(ValueError, match=f"^time step dt must be finite, got {dt}$"):
                flow()


def test_area_descent_below_probed_step():
    mesh = ci.make_icosphere(2, 1.0)
    area0 = ci.total_area(mesh)
    dt = 1e-2
    while ci.total_area(ci.mcf_step(mesh, dt)) >= area0:
        dt *= 0.5
    trace, _ = ci.run_flow(mesh, dt, 30)
    assert trace.stop_reason is None
    areas = [s.area for s in trace.steps]
    assert all(b < a for a, b in zip(areas, areas[1:]))


def test_first_order_area_change():
    mesh = ci.make_icosphere(2, 1.0)
    area0 = ci.total_area(mesh)
    predicted = -sum(
        float(ci.star_sum(mesh, v) @ ci.star_sum(mesh, v))
        / (2.0 * ci.build_star(mesh, v).ring_area)
        for v in range(mesh.n_vertices))
    dt = 1e-4
    d_full = ci.total_area(ci.mcf_step(mesh, dt)) - area0
    d_half = ci.total_area(ci.mcf_step(mesh, dt / 2)) - area0
    assert 1.9 <= d_full / d_half <= 2.1
    assert abs(d_full / dt - predicted) <= 0.02 * abs(predicted)


def test_symmetry_preserved_through_flow():
    mesh = ci.make_icosphere(3, 1.0)
    trace, final = ci.run_flow(mesh, 1e-3, 100)  # t = 0.1
    assert trace.stop_reason is None
    norms = np.linalg.norm(final.positions, axis=1)
    spread = (norms.max() - norms.min()) / norms.mean()
    assert spread <= 0.01


def test_collapse_detected(tmp_path, capsys):
    # a regular tetrahedron whose vertices all land on the centroid
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    faces = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]
    tetra = ci.TriMesh(verts, faces)
    b = ci.vector_mean_curvature(tetra, 0).vector
    dt_star = np.linalg.norm(verts[0]) / np.linalg.norm(b)
    assert dt_star == 2.25
    message = "face 0 collapsed to area 0.000e+00"
    with pytest.raises(CollapseError) as err:
        ci.mcf_step(tetra, dt_star)
    assert (str(err.value), err.value.face, err.value.area) == (message, 0, 0.0)
    # a collapse is a degenerate-face refusal: `except MeshValidationError` catches it
    assert isinstance(err.value, MeshValidationError)

    trace, _ = ci.run_flow(tetra, dt_star, 3)
    assert trace.stop_reason == f"collapse at step 1: {message}"
    assert len(trace.steps) == 1
    mesh_path = tmp_path / "tetra.off"
    ci.save_mesh(tetra, mesh_path)
    assert run(["flow", "--input", str(mesh_path), "--dt", "2.25", "--steps", "3"]) == 0
    assert capsys.readouterr().err == f"stopped early: collapse at step 1: {message}\n"


def test_overflowing_step_is_refused_as_a_mesh_would_be():
    # the step overshoots the center: the icosahedron comes out at four
    # times its radius, where its face areas overflow
    mesh = ci.make_icosphere(0, 5e76)
    dt = 5 * 5e76 / ci.vector_mean_curvature(mesh, 0).magnitude
    for flow in (lambda: ci.run_flow(mesh, dt, 2), lambda: ci.mcf_step(mesh, dt)):
        with pytest.raises(MeshValidationError, match=r"^face 0 has a non-finite area \(inf\)$"):
            flow()


def test_oversized_step_stops_with_reason():
    mesh = ci.make_icosphere(1, 1.0)
    trace, final = ci.run_flow(mesh, 0.2, 50)
    assert trace.stop_reason is not None
    areas = [s.area for s in trace.steps]
    assert all(b < a for a, b in zip(areas, areas[1:]))  # only accepted steps recorded


def test_trace_contents():
    mesh = ci.make_icosphere(2, 1.0)
    trace, _ = ci.run_flow(mesh, 1e-3, 10)
    assert [s.index for s in trace.steps] == list(range(11))
    for s in trace.steps:
        assert s.area > 0
        assert s.min_face_area > 0
        assert s.max_curvature > 0
    assert trace.dt == 1e-3


# ---------------------------------------------------------------------------
# the flow against its loop of one mesh per step and reference sums, byte
# for byte: one corner pass per state changes no bit of the trace or mesh


def flow_bytes(trace, final):
    rows = np.array([(s.index, s.area, s.max_curvature, s.min_face_area) for s in trace.steps])
    return trace.dt, trace.stop_reason, rows.tobytes(), final.positions.tobytes()


def tiny(mesh):
    """mesh scaled until its smallest face has area 4e-14, where a few
    steps collapse a face, and the square of that scale."""
    scale_squared = 4e-14 / mesh.face_areas().min()
    return mesh.with_positions(np.sqrt(scale_squared) * mesh.positions), scale_squared


FLOW_CASES = [
    (3, "full", 1e-3, 10, None),
    (4, "full", 1e-3, 10, None),
    (3, "full", 0.0, 4, None),
    (4, "full", 0.0, 4, None),
    (3, "tiny", 0.01, 40, "collapse at step 13"),
    (4, "tiny", 0.002, 40, "collapse at step 16"),
    (3, "full", 0.02, 10, "area did not decrease at step 1"),
    (4, "full", 0.005, 10, "area did not decrease at step 1"),
]


def flow_case(level, case, dt_scale):
    mesh, dt = jiggled_icosphere(level, 7), dt_scale
    if case == "tiny":
        mesh, scale_squared = tiny(mesh)
        dt *= scale_squared
    return mesh, dt


@pytest.mark.parametrize("level,case,dt_scale,n_steps,reason", FLOW_CASES)
def test_run_flow_matches_reference_loop(level, case, dt_scale, n_steps, reason):
    mesh, dt = flow_case(level, case, dt_scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ci.run_flow(mesh, dt, n_steps)
    expected = reference_run_flow(mesh, dt, n_steps)
    assert flow_bytes(*got) == flow_bytes(*expected)
    stop = got[0].stop_reason
    assert stop is None if reason is None else stop.startswith(reason)


@pytest.mark.parametrize("level,case,dt_scale,n_steps,reason", FLOW_CASES)
def test_run_flow_steps_through_mcf_step(monkeypatch, level, case, dt_scale, n_steps, reason):
    # the trace and final state of a loop of mcf_step calls, bit for bit,
    # with one mcf_step call per attempted step: each accepted one and
    # the step that stops the flow
    mesh, dt = flow_case(level, case, dt_scale)
    expected = reference_run_flow(mesh, dt, n_steps, step=ci.mcf_step)
    calls = []

    def counted(m, dt):
        calls.append(m)
        return ci.mcf_step(m, dt)

    monkeypatch.setattr(flow_mod, "mcf_step", counted)
    trace, final = ci.run_flow(mesh, dt, n_steps)
    assert flow_bytes(trace, final) == flow_bytes(*expected)
    assert len(calls) == len(trace.steps) - 1 + (trace.stop_reason is not None)
    assert calls[0] is mesh


def test_run_flow_divides_b_once_per_state(monkeypatch):
    # record and the next mcf_step read one cached quotient per TriMesh
    divided = []
    quotient = CornerKernel.curvature.func

    def counted(kernel):
        divided.append(kernel)
        return quotient(kernel)

    cached = functools.cached_property(counted)
    cached.__set_name__(CornerKernel, "curvature")
    monkeypatch.setattr(CornerKernel, "curvature", cached)
    mesh = jiggled_icosphere(2, 7)
    trace, final = ci.run_flow(mesh, 1e-3, 4)
    assert trace.stop_reason is None
    assert len(divided) == len(set(map(id, divided))) == len(trace.steps)
    kernel = final.corner_kernel()
    assert divided[-1] is kernel
    assert kernel.curvature.tobytes() == (kernel.star_sums / kernel.ring_areas[:, None]).tobytes()


def test_boundary_refused_before_an_isolated_vertex():
    # vertex 0 is in no face and vertex 1 lies on the boundary
    grid = ci.make_grid(4)
    mesh = ci.TriMesh(np.vstack([[5.0, 5.0, 5.0], grid.positions]), grid.faces + 1)
    message = "mean curvature flow requires a closed mesh: vertex 1 lies on the mesh boundary"
    for flow in (lambda: ci.mcf_step(mesh, 1e-3), lambda: ci.run_flow(mesh, 1e-3, 3)):
        with pytest.raises(BoundaryVertexError, match=f"^{message}$"):
            flow()


def test_boundary_refused_when_an_isolated_vertex_comes_after_it():
    # the isolated vertex is numbered last, after every boundary vertex;
    # the time step and the step count are checked before either
    mesh, _, boundary = isolated_and_boundary(isolated_first=False)
    message = ("mean curvature flow requires a closed mesh: "
               f"vertex {boundary} lies on the mesh boundary")
    for flow in (lambda: ci.mcf_step(mesh, 1e-3), lambda: ci.run_flow(mesh, 1e-3, 3)):
        with pytest.raises(BoundaryVertexError, match=f"^{message}$"):
            flow()
    for flow in (lambda: ci.mcf_step(mesh, -1e-3), lambda: ci.run_flow(mesh, -1e-3, 3)):
        with pytest.raises(ValueError, match="^time step dt must be nonnegative, got -0.001$"):
            flow()
    with pytest.raises(ValueError, match="^step count n_steps must be an integer >= 0, got -1$"):
        ci.run_flow(mesh, 1e-3, -1)


def step_outcome(step, mesh, dt):
    try:
        return step(mesh, dt).positions.tobytes()
    except CollapseError as exc:
        return str(exc), exc.face, exc.area


@pytest.mark.parametrize("level,collapse_dt", [(3, 0.01), (4, 0.002)])
def test_mcf_step_matches_reference(level, collapse_dt):
    mesh = jiggled_icosphere(level, 7)
    # the last state before the flow's collapse stop collapses in one step
    small, scale_squared = tiny(mesh)
    dt = collapse_dt * scale_squared
    trace, last = ci.run_flow(small, dt, 40)
    assert trace.stop_reason.startswith("collapse")
    cases = [(mesh, 0.0), (mesh, 1e-3), (mesh, 2e-3), (last, dt)]
    outcomes = [step_outcome(ci.mcf_step, m, dt) for m, dt in cases]
    assert outcomes == [step_outcome(reference_mcf_step, m, dt) for m, dt in cases]
    assert outcomes[0] == mesh.positions.tobytes()
    assert isinstance(outcomes[-1], tuple)


@pytest.mark.parametrize("level", [3, 4])
def test_non_finite_curvature_is_refused_as_by_the_reference(level):
    # two vertices of a face merged: its area is zero and B is nan at its
    # corners. No flow reads that B: a mesh of these positions is refused
    # when it is built, and a step onto them as a collapse, naming the
    # face and area the reference names
    base = jiggled_icosphere(level, 7)
    a, b, _ = base.faces[5]
    positions = base.positions.copy()
    positions[a] = positions[b]
    assert np.isnan(CornerKernel(positions, base.topology).star_sums).any()
    p = positions[base.faces]
    areas = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    worst = int(np.argmin(areas))
    assert areas[worst] == 0.0
    message = rf"^face {worst} is degenerate \(area 0.000e\+00\)$"
    with pytest.raises(MeshValidationError, match=message) as err:
        ci.TriMesh(positions, base.faces)
    assert (err.value.face, err.value.area) == (worst, 0.0)
    displacement = positions - base.positions
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = step_outcome(lambda m, dt: _advance(m, dt, displacement), base, 1.0)
    expected = step_outcome(lambda m, dt: _reference_step(m, dt, displacement), base, 1.0)
    assert isinstance(got, tuple)
    assert got == expected
    assert got[1] in np.flatnonzero((base.faces == a).any(axis=1))
