"""Pulsed QND probing of large-spin atomic ensembles with dynamical decoupling.

Subpackages:

- ``operators``:  spin-f matrices, alignment operators, Stokes operators
- ``gaussian``:   covariance propagation of (Jy, Jz, Jxy, meter) over pulse trains
- ``oracle``:     exact unitary simulation (spin-1 atoms as one spin na/2) used to validate the engine
- ``experiment``: noise-vs-atom-number sweeps and their exact NA polynomial, figure-of-merit formulas
- ``cli``:        command line front end emitting CSV + run manifests
"""

__version__ = "0.1.0"

from .gaussian import (
    CouplingParams,
    GaussianState,
    PulseSchedule,
    init_css,
    pulse_map,
    run_schedule,
)
from .operators import (
    SpinOperatorSet,
    StokesOperatorSet,
    build_spin_operators,
    build_stokes_operators,
    commutator,
)

__all__ = [
    "__version__",
    "CouplingParams",
    "GaussianState",
    "PulseSchedule",
    "SpinOperatorSet",
    "StokesOperatorSet",
    "build_spin_operators",
    "build_stokes_operators",
    "commutator",
    "init_css",
    "pulse_map",
    "run_schedule",
]
