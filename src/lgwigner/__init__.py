"""Laguerre-Gaussian and Hermite-Gaussian modes, their Wigner transforms,
paraxial beam fields, and a verification engine for the identities that
tie them together.

Each module declares its public names once, in its ``__all__``; the
package re-exports exactly those.
"""

from . import beam, modes, specfun, verify, wigner
from .beam import *
from .modes import *
from .specfun import *
from .verify import *
from .wigner import *

__version__ = "0.1.0"

__all__ = [name for module in (specfun, modes, wigner, beam, verify) for name in module.__all__] + ["__version__"]
