"""Driven two-level atom beyond the rotating wave approximation.

Library layout:

    config      AtomConfig, BranchMode, Tolerances
    drives      CosineDrive, RwaPairDrive, ConstantDrive
    frames      detuning, Rabi root, mixing angle, connection, identities
    closedform  phase integral Z(t), dressed solution, elliptic phase, limits
    oracle      direct RK4 integration, dressed projection, comparisons
    scenario    JSON config surface, runs, sweeps, CSV series
    acceptance  the acceptance-criteria suite (also via `dressedatom accept`)
"""

from .config import AtomConfig, BranchMode, Tolerances
from .drives import ConstantDrive, CosineDrive, RwaPairDrive
from .frames import (connection_dtheta, detuning, identity_residuals,
                     mixing_angle, rabi_frequency, transition_current)
from .closedform import (DressedSolution, Regime, dressed_solution,
                         elliptic_phase, limit_form,
                         phase_integral, psi0_gamma_zero_integrand)
from .oracle import (PropagationResult, StateVector, compare,
                     current_dynamics_check, hamiltonian,
                     initial_state_for_psi_frame, propagate)
from .scenario import ScenarioConfig, parse_config, run_scenario, serialize_config, sweep

__all__ = [
    "AtomConfig", "BranchMode", "Tolerances",
    "CosineDrive", "RwaPairDrive", "ConstantDrive",
    "detuning", "rabi_frequency", "mixing_angle", "connection_dtheta",
    "identity_residuals", "transition_current",
    "DressedSolution", "Regime",
    "phase_integral", "dressed_solution", "psi0_gamma_zero_integrand",
    "elliptic_phase", "limit_form",
    "StateVector", "PropagationResult", "hamiltonian",
    "initial_state_for_psi_frame", "propagate", "compare",
    "current_dynamics_check",
    "ScenarioConfig", "parse_config", "serialize_config", "run_scenario",
    "sweep",
]

__version__ = "0.1.0"
