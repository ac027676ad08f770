"""Second-order explicit integrator from chained Heun substeps, with a
five-compartment corruption-poverty model, verification problems, and
convergence/era-summary study harnesses.

The package republishes each module's ``__all__``; ``cli`` is left out.
"""

from . import config, cpmodel, manufactured, numerics, scheme, studies
from .config import *
from .cpmodel import *
from .manufactured import *
from .numerics import *
from .scheme import *
from .studies import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += config.__all__
__all__ += cpmodel.__all__
__all__ += manufactured.__all__
__all__ += numerics.__all__
__all__ += scheme.__all__
__all__ += studies.__all__
