"""The model, compiled once: detuning, mean level, drive and branch.

All arithmetic uses natural units (hbar = 1): every stored energy is an
angular frequency.  ``scenario.ScenarioConfig.model`` converts the config's
energies at the boundary; library callers build a ``Model`` with
``Model.of``.  Building a model checks it once, so that nothing downstream
meets a non-finite detuning or an overflowing radicand, and evaluates the
one threshold that ``frames`` and ``closedform`` share: whether the Rabi
radicand can touch zero.  Its relative tolerance ``RAD_EPS`` is fixed
numerical policy, not a parameter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .drives import Drive
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


RAD_EPS = 1e-12     # radicand-zero detection, scaled by coupling^2


@dataclass(frozen=True)
class Model:
    """The driven two-level atom in natural units.

    omega_tilde  detuning ((e2 - e1) - Omega)/2
    off          mean level (e1 + e2)/2 - Omega/2, a global phase
    omega        drive angular frequency Omega, > 0
    drive        the coupling envelope f(t) of the connection frame
    branch       sign policy of the Rabi root

    Derived once, when the model is built:

    crossing     whether the radicand omega_tilde^2 + f^2 can touch
                 zero: the detuning is within RAD_EPS of zero relative to the
                 problem scale, so the coupling zeros are dressed-level
                 crossings
    """

    omega_tilde: float
    off: float
    omega: float
    drive: Drive
    branch: BranchMode = BranchMode.SMOOTH_CONTINUATION
    crossing: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        wt, scale = self.omega_tilde, self.drive.coupling_scale()
        if not (math.isfinite(wt) and math.isfinite(self.off)):
            raise ValidationError("detuning and mean level must be finite")
        if not math.isfinite(wt * wt + scale * scale):
            raise ValidationError("radicand bound omega_tilde^2 + coupling^2 "
                                  "overflows the float range")
        if not (self.omega > 0 and math.isfinite(self.omega * self.omega)):
            raise ValidationError("omega must be positive, and omega^2 finite")
        ref = max(scale, abs(wt), 1e-300)
        object.__setattr__(self, "crossing", not wt * wt > RAD_EPS * ref * ref)

    @classmethod
    def of(cls, drive: Drive, omega_tilde: float,
           branch: BranchMode = BranchMode.SMOOTH_CONTINUATION) -> "Model":
        """A model with a prescribed detuning and no mean level; Omega is
        the drive's own frequency, 1 for the constant drive.  A rotating-wave
        drive (the constant envelope j0 with its own Omega), or a model with
        a mean level, is built with ``Model`` directly."""
        return cls(omega_tilde=omega_tilde, off=0.0,
                   omega=getattr(drive, "omega", 1.0), drive=drive,
                   branch=branch)
