"""Geometric bound-state ladders, tunable square-well scattering, and
Fano/Breit-Wigner resonance profiles with least-squares fitting.

The modules layer bottom-up: numkit (log-gamma, root finding, seeded
noise), dipole_ladder (supercritical inverse-square tower), twobody
(square well), efimov (three-body window counting and towers), profiles
(line shapes and synthetic curves), fitter (least squares), cli.
"""

__version__ = "0.1.0"

from .dipole_ladder import (
    CRITICAL_STRENGTH,
    BoundLadder,
    LadderEntry,
    alpha_from_strength,
    build_ladder,
    geometric_energies,
    kappa_n,
    ladder_residual,
)
from .efimov import (
    UNBOUNDED,
    EfimovLadder,
    ThresholdPartition,
    build_efimov_ladder,
    classify_states_vs_threshold,
    count_states,
)
from .errors import (
    ConvergenceError,
    DegenerateCurveError,
    DomainError,
    GammaPoleError,
    NoBracketError,
    SubcriticalStrengthError,
    ToolkitError,
    UnreachableTargetError,
)
from .fitter import (
    FitReport,
    compare_models,
    fit,
    initial_guess_breit_wigner,
    initial_guess_fano,
    report_to_json_dict,
)
from .numkit import find_root, log_gamma, seeded_gaussian_noise
from .profiles import (
    BreitWignerParameters,
    CrossSectionCurve,
    FanoParameters,
    breit_wigner,
    fano,
    reduced_energy,
    synthesize,
)
from .twobody import (
    ScatteringLengthResult,
    SquareWell,
    binding_energy,
    scattering_length,
    tune_to_scattering_length,
)
