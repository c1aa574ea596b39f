"""Driven two-level atom beyond the rotating wave approximation.

Library layout:

    config      Model (detuning, mean level, drive and branch, compiled
                once), BranchMode
    drives      CosineDrive, ConstantDrive: the coupling envelope f(t) of
                the connection frame, the one way a drive reaches the physics
    frames      Rabi root, mixing angle, connection, identities
    closedform  phase integral Z(t) in closed form, dressed series
    oracle      direct RK4 integration from an initial pair (c1, c2),
                dressed projection, and the compare and current_fit
                report entries as plain dicts
    scenario    JSON config surface, runs, sweeps, CSV series
    acceptance  the acceptance-criteria suite (also via `dressedatom accept`)
"""

__version__ = "0.1.0"  # set before the imports: scenario reports it

from .config import BranchMode, Model
from .drives import ConstantDrive, CosineDrive
from .frames import (connection_dtheta, identity_residuals, mixing_angle,
                     rabi_frequency, transition_current)
from .closedform import dressed_series, phase_series, psi0_gamma_zero_integrand
from .oracle import (PropagationResult, compare, current_dynamics_check,
                     initial_state_for_psi_frame, propagate)
from .scenario import ScenarioConfig, parse_config, run_scenario, sweep

__all__ = [
    "Model", "BranchMode",
    "CosineDrive", "ConstantDrive",
    "rabi_frequency", "mixing_angle", "connection_dtheta",
    "identity_residuals", "transition_current",
    "phase_series", "dressed_series", "psi0_gamma_zero_integrand",
    "PropagationResult",
    "initial_state_for_psi_frame", "propagate", "compare",
    "current_dynamics_check",
    "ScenarioConfig", "parse_config", "run_scenario", "sweep",
]
