"""szegolab: numerics for the mutual-information rate of integrated
stationary Gaussian inputs observed through additive white noise.

The package computes the sampled rate (1/T) * (1/2) log det(I + A) from exact
Gram coefficients of the input autocovariance, compares it against its
spectral-integral limit, and exposes the full asymptotic-equivalence tool set
used to certify the convergence: circulant companions, norm and trace-power
diagnostics, constructive polynomial sandwiches of log(1+x), circulant
power-sum identities, and a Monte-Carlo oracle for the analytic pipeline.
"""

from . import errors, gram, mc, models, spectra, szego
from .errors import *
from .gram import *
from .mc import *
from .models import *
from .spectra import *
from .szego import *

__version__ = "1.0.0"

# each module's ``__all__`` is what the package exports
__all__ = [
    *errors.__all__, *gram.__all__, *mc.__all__, *models.__all__, *spectra.__all__,
    *szego.__all__, "__version__",
]
