"""Per-layer tracing from outside the package.

`Tracer.install` replaces each listed curvint function by a wrapper in
every curvint module namespace that binds it (and methods on their
class), records one span per call in memory, and `Tracer.remove` puts
the originals back. A layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import sys
import time
import weakref
from collections import Counter

import numpy as np

# layer -> (module, function or Class.method) it wraps
LAYERS = {
    "cli": [("cli", "run")],
    "mesh.parse": [("mesh", "load_mesh")],
    "mesh.build": [("mesh", "TriMesh.__init__"), ("mesh", "TriMesh.face_areas"),
                   ("mesh", "total_area")],
    "mesh.topology": [("mesh", "TriMesh.boundary_vertices"), ("mesh", "TriMesh.is_closed"),
                      ("mesh", "TriMesh.vertex_faces")],
    "mesh.star": [("mesh", "build_star")],
    "mesh.serialise": [("mesh", "save_mesh"), ("mesh", "mesh_to_text")],
    "mesh.primitives": [("mesh", "make_icosphere"), ("mesh", "make_catenoid"),
                        ("mesh", "make_primitive")],
    "discrete.vertex": [("discrete", f) for f in
                        ("vector_mean_curvature", "star_sum", "area_gradient", "laplacian")],
    "discrete.field": [("discrete", f) for f in
                       ("curvature_field", "star_sums", "ring_areas", "laplacian_field")],
    "flow.step": [("flow", "mcf_step")],
    "flow.run": [("flow", "run_flow")],
    "numerics.quadrature": [("numerics", "gauss_legendre"), ("numerics", "panel_nodes")],
    "numerics.fd": [("numerics", "central_gradient")],
    "surfaces.geometry": [("surfaces", "ParametricSurface.geometry")],
    "contour.boundary": [("contour", f) for f in
                         ("rhs_integral", "contour_length", "boundary_point")],
    "contour.interior": [("contour", "lhs_integral"), ("contour", "region_area")],
    "contour.study": [("contour", "verify_identity"), ("contour", "shrinking_limit")],
}

# work counts taken at a layer boundary: (layer, count) -> f(args, result)


def _csv_bytes(args, result):
    argv = list(args[0])
    return sum(os.path.getsize(argv[i + 1]) for i, a in enumerate(argv[:-1])
               if a == "--output" and os.path.exists(argv[i + 1]))


COUNTS = {
    ("cli", "run"): ("out_bytes", _csv_bytes),
    ("mesh", "load_mesh"): ("in_bytes", lambda a, r: os.path.getsize(a[0])),
    ("mesh", "TriMesh.__init__"): ("faces", lambda a, r: len(a[0].faces)),
    ("mesh", "mesh_to_text"): ("out_bytes", lambda a, r: len(r)),
    ("flow", "run_flow"): ("steps", lambda a, r: len(r[0].steps) - 1),
    ("numerics", "panel_nodes"): ("nodes", lambda a, r: len(r[0])),
    ("surfaces", "ParametricSurface.geometry"):
        ("points", lambda a, r: np.broadcast(np.asarray(a[1]), np.asarray(a[2])).size),
}

# per-layer metric names beyond self_s / calls / errors
EXTRA = ["cli.out_bytes", "mesh.parse.in_bytes", "mesh.build.faces", "mesh.topology.builds",
         "mesh.topology.builds_per_connectivity", "mesh.serialise.out_bytes",
         "flow.run.steps", "numerics.quadrature.nodes", "surfaces.geometry.points"]
SETUP_LAYERS = ["mesh.primitives", "mesh.build", "mesh.serialise"]


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every traced metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count"),
                (f"{layer}.errors", "count")]
    out += [(name, "bytes" if name.endswith("bytes") else
             "ratio" if name.endswith("per_connectivity") else "count") for name in EXTRA]
    for layer in SETUP_LAYERS:
        out += [(f"setup.{layer}.self_s", "s"), (f"setup.{layer}.calls", "count")]
    return out


class Tracer:
    """Spans are [job, layer, start_ns, end_ns, parent, child_ns, failed];
    job 0 is the traced set-up, jobs 1.. are timed jobs."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.job = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._classified = weakref.WeakSet()
        self._connectivity: dict[int, set] = {}

    # -- patching ---------------------------------------------------------

    def install(self, package: str = "curvint"):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                module = sys.modules[f"{package}.{mod_name}"]
                count = COUNTS.get((mod_name, attr))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    hook = self._classify if attr == "TriMesh.boundary_vertices" else None
                    self._patch(cls, meth, original, self._wrap(layer, original, count, hook))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original, count, None)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self):
        """Restore every original and confirm it is back in place."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
               if (o.__dict__[a] if isinstance(o, type) else getattr(o, a)) is not orig]
        self._patches.clear()
        if bad:
            raise RuntimeError(f"tracing left wrappers in place: {bad}")

    def _wrap(self, layer, fn, count, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args[0])
            parent = stack[-1] if stack else -1
            span = [self.job, layer, clock(), 0, parent, 0, False]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[3] - span[2]
            if layer == "cli" and result != 0:
                span[6] = True
            if count is not None:
                self.counts.setdefault(self.job, Counter())[f"{layer}.{count[0]}"] += \
                    count[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _classify(self, mesh):
        """The first boundary_vertices call on a TriMesh instance computes
        its classification; count it against the face array it used."""
        if mesh in self._classified:
            return
        self._classified.add(mesh)
        self.counts.setdefault(self.job, Counter())["mesh.topology.builds"] += 1
        digest = hashlib.sha1(np.ascontiguousarray(mesh.faces).tobytes()).digest()
        self._connectivity.setdefault(self.job, set()).add(digest)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: job values are means per timed job, set-up
        values are the totals of the one traced set-up."""
        jobs = max(self.job, 1)
        self_ns, calls, errors = Counter(), Counter(), Counter()
        setup_ns, setup_calls = Counter(), Counter()
        for job, layer, start, end, _, child, failed in self.spans:
            if job == 0:
                setup_ns[layer] += end - start - child
                setup_calls[layer] += 1
                continue
            self_ns[layer] += end - start - child
            calls[layer] += 1
            errors[layer] += failed
        counts = Counter()
        for job, c in self.counts.items():
            if job:
                counts.update(c)
        distinct = sum(len(s) for job, s in self._connectivity.items() if job)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9 / jobs
            out[f"{layer}.calls"] = calls[layer] / jobs
            out[f"{layer}.errors"] = errors[layer] / jobs
        for name in EXTRA:
            out[name] = counts[name] / jobs
        builds = counts["mesh.topology.builds"]
        out["mesh.topology.builds_per_connectivity"] = builds / distinct if distinct else 0.0
        for layer in SETUP_LAYERS:
            out[f"setup.{layer}.self_s"] = setup_ns[layer] / 1e9
            out[f"setup.{layer}.calls"] = setup_calls[layer]
        return out

    def write_spans(self, path):
        """All spans as gzip CSV: job,layer,start_ns,end_ns,parent,self_ns,failed."""
        with gzip.open(path, "wt") as fh:
            fh.write("job,layer,start_ns,end_ns,parent,self_ns,failed\n")
            for job, layer, start, end, parent, child, failed in self.spans:
                fh.write(f"{job},{layer},{start},{end},{parent},{end - start - child},"
                         f"{int(failed)}\n")
