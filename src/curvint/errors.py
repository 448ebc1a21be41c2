"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CurvintError",
    "EvaluationError",
    "DomainError",
    "ContourError",
    "ParseError",
    "MeshValidationError",
    "IsolatedVertexError",
    "BoundaryVertexError",
    "CollapseError",
]


class CurvintError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(CurvintError):
    """An integrand or field produced a non-finite value."""

    def __init__(self, message: str, where=None):
        super().__init__(message if where is None else f"{message} at {where}")
        self.where = where


class DomainError(CurvintError):
    """Parameter point outside the admissible domain, or the
    parameterization is degenerate there."""


class ContourError(CurvintError):
    """Boundary curve has a degenerate tangent at the requested point."""


class ParseError(CurvintError):
    """Malformed mesh file; `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int, path=None):
        prefix = f"{path}:" if path else "line "
        super().__init__(f"{prefix}{line}: {message}")
        self.line = line
        self.path = path


class MeshValidationError(CurvintError):
    """Mesh data violates a structural invariant; `face` names the
    offending face when applicable, and `area` its area when the face is
    degenerate."""

    def __init__(self, message: str, face=None, area=None):
        super().__init__(message)
        self.face = face
        self.area = area


class IsolatedVertexError(CurvintError):
    """Vertex has no incident faces."""


class BoundaryVertexError(CurvintError):
    """Operation requires an interior vertex, whose one-ring closes into
    one loop (no open edge, manifold, in three faces or more)."""


class CollapseError(MeshValidationError):
    """Flow step produced a degenerate triangle (`face`, its `area`)."""
