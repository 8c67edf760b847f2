"""Geometric bound-state ladders, tunable square-well scattering, and
Fano/Breit-Wigner resonance profiles with least-squares fitting.

The modules layer bottom-up: numkit (log-gamma, root finding, seeded
noise), dipole_ladder (supercritical inverse-square tower), twobody
(square well), efimov (three-body window counting and towers), profiles
(line shapes and synthetic curves), fitter (least squares), cli.

The public API is each library module's ``__all__``, re-exported here.
"""

__version__ = "0.1.0"

from .dipole_ladder import *
from .efimov import *
from .errors import *
from .fitter import *
from .numkit import *
from .profiles import *
from .twobody import *
