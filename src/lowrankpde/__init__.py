"""Rank-constrained implicit time stepping for anisotropic diffusion.

The problem lives on the unit square with homogeneous Dirichlet walls and a
(possibly rotating) 2x2 diffusion tensor.  States are kept as rank-r matrices
of sine-mode coefficients; each backward step is the minimisation of the
implicit-Euler quadratic over that rank-r set, realised either by alternating
factor solves or by a splitting pass through the tangent space.
"""

from . import analysis, galerkin, manifold, stepping
from .analysis import *  # noqa: F401,F403
from .galerkin import *  # noqa: F401,F403
from .manifold import *  # noqa: F401,F403
from .stepping import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = analysis.__all__ + galerkin.__all__ + manifold.__all__ + stepping.__all__
