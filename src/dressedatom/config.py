"""Model configuration: level energies, drive frequency, branch policy, tolerances.

All internal arithmetic uses natural units (hbar = 1): every stored energy is
an angular frequency.  ``AtomConfig.hbar`` exists only so that inputs quoted
in other unit systems can be converted once, at the boundary, via
``to_natural()``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import ValidationError


class BranchMode(enum.Enum):
    """Sign policy for the Rabi root.

    POSITIVE_ROOT takes omega_r >= 0 everywhere.  SMOOTH_CONTINUATION flips
    the sign of omega_r each time the radicand passes through zero, so the
    dressed eigenvalue curve stays smooth through level crossings (this is
    what turns sin(int |J0 cos|) into the resonant sin((J0/W) sin(W t))).
    The mixing angle itself always uses the positive root: that is the
    eigenvector-continuous choice through a crossing.
    """

    POSITIVE_ROOT = "positive"
    SMOOTH_CONTINUATION = "smooth"


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy constants; all overridable from the CLI."""

    deg_eps: float = 1e-12      # frame degeneracy threshold (angle undefined)
    rad_eps: float = 1e-12      # radicand-zero detection, scaled by coupling^2
    quad_tol: float = 1e-10     # absolute tolerance per phase-integral part
    quad_limit: int = 2 ** 15   # panel budget per segment of the phase quadrature
    norm_tol: float = 1e-8      # allowed propagation norm drift
    fd_step: float = 1e-3       # step for finite-difference cross-checks

    def validate(self) -> None:
        for name in ("deg_eps", "rad_eps", "quad_tol", "norm_tol", "fd_step"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"tolerance {name} must be positive")
        if self.quad_limit < 8:
            raise ValidationError("quad_limit must be at least 8")


@dataclass(frozen=True)
class AtomConfig:
    """Fixed parameters of the two-level model.

    e1, e2       bare level energies (angular frequency once hbar = 1)
    omega_drive  angular frequency of the sinusoidal source, > 0
    j0           drive amplitude, >= 0
    hbar         action scale for input conversion; 1 internally
    """

    e1: float = 0.0
    e2: float = 2.0
    omega_drive: float = 1.0
    j0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (self.omega_drive > 0):
            raise ValidationError("omega_drive must be positive")
        if self.j0 < 0:
            raise ValidationError("j0 must be non-negative")
        if not (self.hbar > 0):
            raise ValidationError("hbar must be positive")
        v2 = self.e2 - self.hbar * self.omega_drive
        if not math.isfinite(v2):
            raise ValidationError("recoil-shifted level e2 - hbar*omega is not finite")

    def to_natural(self) -> "AtomConfig":
        """Return an equivalent config with hbar = 1 (energies rescaled)."""
        if self.hbar == 1.0:
            return self
        h = self.hbar
        return replace(self, e1=self.e1 / h, e2=self.e2 / h,
                       j0=self.j0 / h, hbar=1.0)

    @property
    def e_bar(self) -> float:
        """Mean level energy (E1 + E2)/2."""
        return 0.5 * (self.e1 + self.e2)

    @classmethod
    def from_detuning(cls, omega_tilde: float, j0: float,
                      omega_drive: float = 1.0, e1: float = 0.0) -> "AtomConfig":
        """Build a config with a prescribed detuning.

        Inverts omega_tilde = ((e2 - e1) - omega_drive)/2 for e2.
        """
        e2 = e1 + 2.0 * omega_tilde + omega_drive
        return cls(e1=e1, e2=e2, omega_drive=omega_drive, j0=j0)
