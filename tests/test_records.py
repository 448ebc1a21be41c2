"""The record types are named tuples: their fields in order, positional
and keyword construction, defaults, immutability, value equality and
hashing, pickling, and a `_replace` that runs a gated type's checks. No
class the package exports is a dataclass, whose generated methods every
fresh import of the package would compile again."""

import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

import curvint as ci

_ARRAY = np.array([0.5, -1.0, 2.0])
_STAR = ci.StarEntry(3, 0.25, (1, 2), 0.75, _ARRAY)
_STEP = ci.FlowStep(0, 12.5, 2.0, 0.125)

# type -> (its fields in order, the values of one record, its defaults)
RECORDS = {
    ci.QuadratureRule: (("nodes", "weights", "panels"),
                        (np.array([-0.5, 0.5]), np.array([1.0, 1.0]), 3), {"panels": 1}),
    ci.RectRegion: (("u0", "u1", "v0", "v1"), (0.0, 1.0, -2.0, 0.5), {}),
    ci.DiskRegion: (("uc", "vc", "rho"), (0.25, -1.0, 0.5), {}),
    ci.BoundaryPoint: (("position", "tangent", "normal", "speed"),
                       (_ARRAY, _ARRAY + 1, _ARRAY - 1, 2.5), {}),
    ci.IdentityReport: (("lhs", "rhs", "abs_err", "rel_err", "area"),
                        (_ARRAY, _ARRAY * 2, 1e-3, 1e-6, 4.0), {}),
    ci.LimitEstimate: (("radii", "estimates", "target", "errors", "observed_order"),
                       (np.array([0.2, 0.1]), np.ones((2, 3)), _ARRAY, np.array([0.1, 0.05]), 2.0),
                       {}),
    ci.StarEntry: (("face", "area", "opposite", "edge_length", "normal"),
                   (3, 0.25, (1, 2), 0.75, _ARRAY), {}),
    ci.VertexStar: (("center", "entries", "is_boundary"), (4, (_STAR, _STAR), False), {}),
    ci.CurvatureSample: (("vector", "magnitude", "direction", "near_minimal"),
                         (_ARRAY, 3.0, _ARRAY / 3.0, False), {}),
    ci.FlowStep: (("index", "area", "max_curvature", "min_face_area"), (0, 12.5, 2.0, 0.125),
                  {}),
    ci.FlowTrace: (("dt", "steps", "stop_reason"), (1e-3, (_STEP, _STEP), "collapse"),
                   {"stop_reason": None}),
}
HASHABLE = {ci.RectRegion, ci.DiskRegion, ci.FlowStep, ci.FlowTrace}  # those that hold no array


def same(a, b) -> bool:
    """a and b hold the same values of the same types, arrays bitwise."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_api(cls):
    fields, values, defaults = RECORDS[cls]
    assert cls._fields == fields
    assert list(inspect.signature(cls).parameters) == list(fields)
    record = cls(*values)
    assert isinstance(record, tuple) and same(tuple(record), values)
    assert same(cls(**dict(zip(fields, values))), record)
    assert all(same(getattr(record, f), v) for f, v in zip(fields, values))
    # the defaults, and no default for any other field
    required = [v for f, v in zip(fields, values) if f not in defaults]
    short = cls(*required)
    assert all(same(getattr(short, f), d) for f, d in defaults.items())
    with pytest.raises(TypeError):
        cls(*required[:-1])
    # immutable, with no instance dictionary to take another attribute
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    assert same(pickle.loads(pickle.dumps(record)), record)
    assert same(record._replace(), record)
    if cls in HASHABLE:
        twin = cls(*values)
        assert twin == record and twin is not record and hash(twin) == hash(record)
        assert {record: "first"}[twin] == "first"


def test_gated_records_cast_and_replace_through_their_gate():
    rect = ci.RectRegion(np.int64(0), 1, np.float32(0.5), np.array(2.0))
    assert same(tuple(rect), (0.0, 1.0, 0.5, 2.0))
    areas = {ci.RectRegion(0, 1, 0, 1): 1.0, ci.DiskRegion(0, 0, 1): math.pi}
    assert areas[ci.RectRegion(0.0, 1.0, 0.0, 1.0)] == 1.0
    assert areas[ci.DiskRegion(np.int64(0), 0.0, np.float64(1))] == math.pi
    for changes, message in [({"u0": "0"}, "rectangle corner u0 must be a real number, got '0'"),
                             ({"u1": -1}, "rectangle must have positive extent")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            rect._replace(**changes)
    assert same(rect._replace(v1=np.int64(3)), ci.RectRegion(0.0, 1.0, 0.5, 3.0))
    with pytest.raises(ValueError, match="^disk radius must be positive, got 0.0$"):
        ci.DiskRegion(0, 0, 1)._replace(rho=0)
    rule = ci.gauss_legendre(3)
    with pytest.raises(ValueError, match="^panels must be an integer >= 1, got 0$"):
        rule._replace(panels=0)
    with pytest.raises(ValueError, match="^weights must sum to 2$"):
        rule._replace(weights=rule.weights * 2)
    # an unpickled or replaced rule's arrays are read-only, as a built one's are
    for copy in (pickle.loads(pickle.dumps(rule)), rule._replace(nodes=list(rule.nodes))):
        assert not (copy.nodes.flags.writeable or copy.weights.flags.writeable)
        assert same(copy, rule)


def test_no_exported_class_is_a_dataclass():
    classes = [obj for name in dir(ci) if not name.startswith("_")
               for obj in [getattr(ci, name)] if inspect.isclass(obj)]
    assert set(RECORDS) <= set(classes)
    assert [c.__name__ for c in classes if dataclasses.is_dataclass(c)] == []
