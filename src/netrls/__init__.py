"""Distributed online least-squares estimation over a network.

Simulator, closed-form finite-time error bounds, and a planner for the
number of consensus steps and the communication stopping time.

Each module's ``__all__`` is its public surface, and the package re-exports
it: a public name is declared once, in the module that defines it.
"""

from . import bounds, consensus, model_gen, planner, simnet
from .bounds import *
from .consensus import *
from .model_gen import *
from .planner import *
from .simnet import *

__version__ = "0.1.0"

__all__ = (bounds.__all__ + consensus.__all__ + model_gen.__all__ + planner.__all__
           + simnet.__all__)
