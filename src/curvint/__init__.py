"""curvint: contour-integral evaluation of the mean-curvature vector.

Numerically verifies, on analytic parametric patches, that the patch
integral of N * H equals the contour integral of the exterior in-surface
boundary normal, evaluates the shrinking-patch limit of that identity, and
carries the construction to triangle meshes as a discrete vector mean
curvature with an exact area-gradient property, a piecewise-linear surface
Laplacian, and an explicit mean-curvature-flow demonstrator.
"""

# each module's __all__ is the one list of its public names
from .errors import *
from .numerics import *
from .surfaces import *
from .contour import *
from .mesh import *
from .discrete import *
from .flow import *

__version__ = "0.1.0"
