"""Higher-power energy densities, Newton tensors, and invariant harmonic
vector fields on 3-dimensional unimodular Lie groups."""

from . import invariants, lie3, mapenergy
from .invariants import *  # noqa: F403
from .lie3 import *  # noqa: F403
from .mapenergy import *  # noqa: F403

__version__ = "0.1.0"

__all__ = invariants.__all__ + lie3.__all__ + mapenergy.__all__
