"""Scenario configuration, runs, and sweeps.

The config surface is a flat JSON object; unknown keys are rejected so a
typo cannot silently fall back to a default.  ``parse_config`` and
``serialize_config`` round-trip losslessly.

Output kinds and their CSV schemas:

    frame      t, omega_r, cos_theta, sin_theta, dtheta_dt
    closed     t, re_Z, im_Z, p0_raw, p0_norm
    oracle     t, re_c1, im_c1, re_c2, im_c2, norm, p0_oracle, current
    compare    t, closed_p0, oracle_p0, abs_diff
    identities t, r1, r2, r3 [, re_eq24, im_eq24, im_eq24_gap]
    current    t, current, dcurrent_dt

``p0_oracle`` and the compare column are 2*|psi0_oracle|^2: the oracle
prepares a unit-norm bare state (dressed amplitudes 1/sqrt(2)), while the
closed form uses the psi-bar = 1 convention, so oracle populations are
rescaled by 2 for comparison.  ``closed_p0`` in compare is the raw
(unnormalised) |psi0|^2; the run report records this choice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import closedform, frames, oracle
from .config import AtomConfig, BranchMode, Tolerances
from .drives import ConstantDrive, CosineDrive, Drive, RwaPairDrive
from .errors import DressedAtomError, ParseError, UnknownAxis, ValidationError
from .series import TimeSeries

_OUTPUT_KINDS = ("frame", "closed", "oracle", "compare", "identities", "current")
_DRIVES = ("cosine", "rwa", "constant")
_BRANCHES = {"smooth": BranchMode.SMOOTH_CONTINUATION,
             "positive": BranchMode.POSITIVE_ROOT}
_INITIAL_STATES = ("dressed", "bare1", "bare2")


@dataclass(frozen=True)
class ScenarioConfig:
    drive: str = "cosine"
    e1: float = 0.0
    e2: float = 2.0
    omega: float = 1.0
    j0: float = 1.0
    gamma0: float = 0.0
    hbar: float = 1.0
    branch: str = "smooth"
    initial_state: str = "dressed"
    t_end: float = 10.0
    dt: float = 0.001
    output_stride: int = 10
    outputs: str = "closed,oracle,compare"
    deg_eps: float = 1e-12
    rad_eps: float = 1e-12
    quad_tol: float = 1e-10
    norm_tol: float = 1e-8
    fd_step: float = 1e-3

    def validate(self) -> None:
        if self.drive not in _DRIVES:
            raise ValidationError(f"drive must be one of {_DRIVES}")
        if self.branch not in _BRANCHES:
            raise ValidationError("branch must be 'smooth' or 'positive'")
        if self.initial_state not in _INITIAL_STATES:
            raise ValidationError(f"initial_state must be one of {_INITIAL_STATES}")
        if self.j0 < 0:
            raise ValidationError("j0 must be non-negative (j0 >= 0)")
        if self.omega <= 0:
            raise ValidationError("omega must be positive")
        if self.hbar <= 0:
            raise ValidationError("hbar must be positive")
        if self.t_end < 0:
            raise ValidationError("t_end must be non-negative")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.output_stride < 1:
            raise ValidationError("output_stride must be >= 1")
        if self.gamma0 != 0.0 and self.drive != "constant":
            raise ValidationError("gamma0 applies to the constant drive only")
        for kind in self.output_list():
            if kind not in _OUTPUT_KINDS:
                raise ValidationError(f"unknown output kind {kind!r}")
        self.tolerances().validate()

    def output_list(self) -> list[str]:
        return [k.strip() for k in self.outputs.split(",") if k.strip()]

    def atom_config(self) -> AtomConfig:
        return AtomConfig(e1=self.e1, e2=self.e2, omega_drive=self.omega,
                          j0=self.j0, hbar=self.hbar).to_natural()

    def drive_signal(self) -> Drive:
        cfg = self.atom_config()
        if self.drive == "cosine":
            return CosineDrive(j0=cfg.j0, omega=cfg.omega_drive)
        if self.drive == "rwa":
            return RwaPairDrive(j0=cfg.j0, omega=cfg.omega_drive)
        return ConstantDrive(j0=cfg.j0, gamma0=self.gamma0 / self.hbar)

    def branch_mode(self) -> BranchMode:
        return _BRANCHES[self.branch]

    def tolerances(self) -> Tolerances:
        return Tolerances(deg_eps=self.deg_eps, rad_eps=self.rad_eps,
                          quad_tol=self.quad_tol, norm_tol=self.norm_tol,
                          fd_step=self.fd_step)


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _number(key: str, value) -> float:
    """A config number: JSON int or float, finite (the JSON reader also
    accepts NaN and Infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"key {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"key {key!r} must be a finite number, got {number}")
    return number


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat JSON object; unknown keys are errors, missing keys default.

    The convenience key ``omega_tilde`` may replace ``e2``: it sets
    e2 = e1 + hbar*(2*omega_tilde + omega).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError("config document must be a JSON object")

    raw = dict(raw)
    if "omega_tilde" in raw:
        if "e2" in raw:
            raise ParseError("give either 'e2' or 'omega_tilde', not both")
        wt = _number("omega_tilde", raw.pop("omega_tilde"))
        e1 = _number("e1", raw.get("e1", 0.0))
        hbar = _number("hbar", raw.get("hbar", 1.0))
        omega = _number("omega", raw.get("omega", 1.0))
        raw["e2"] = e1 + hbar * (2.0 * wt + omega)

    kwargs = {}
    for key, value in raw.items():
        if key not in _FIELD_TYPES:
            raise ParseError(f"unknown config key {key!r}")
        if key in ("drive", "branch", "outputs", "initial_state"):
            if not isinstance(value, str):
                raise ParseError(f"key {key!r} must be a string")
            kwargs[key] = value
        elif key == "output_stride":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError("output_stride must be an integer")
            kwargs[key] = value
        else:
            kwargs[key] = _number(key, value)
    cfg = ScenarioConfig(**kwargs)
    cfg.validate()
    return cfg


def serialize_config(cfg: ScenarioConfig) -> str:
    doc = {f.name: getattr(cfg, f.name) for f in fields(ScenarioConfig)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _output_grid(cfg: ScenarioConfig) -> np.ndarray:
    n_steps = oracle.step_count(cfg.t_end, cfg.dt)
    dt = cfg.t_end / n_steps
    idx = np.arange(0, n_steps + 1, cfg.output_stride)
    if idx[-1] != n_steps:
        idx = np.append(idx, n_steps)
    return idx * dt


def _initial_state(cfg: ScenarioConfig, atom: AtomConfig, drv: Drive):
    if cfg.initial_state == "dressed":
        return oracle.initial_state_for_psi_frame(atom, drv, cfg.branch_mode(),
                                                  cfg.tolerances())
    return oracle.bare_state(1 if cfg.initial_state == "bare1" else 2)


def run_scenario(cfg: ScenarioConfig) -> tuple[dict[str, TimeSeries], dict]:
    """Produce the requested output series plus a scalar report.

    Deterministic for a fixed config: fixed-step RK4, deterministic
    quadrature, and 17-significant-digit CSV serialisation.
    """
    cfg.validate()
    atom = cfg.atom_config()
    drv = cfg.drive_signal()
    branch = cfg.branch_mode()
    tols = cfg.tolerances()
    wanted = cfg.output_list()
    report: dict = {
        "detuning": frames.detuning(atom),
        "population_convention":
            "closed p0_raw uses psi_bar=1; oracle p0 rescaled by 2 to match",
    }
    out: dict[str, TimeSeries] = {}

    schemas = {
        "frame": ["t", "omega_r", "cos_theta", "sin_theta", "dtheta_dt"],
        "closed": ["t", "re_Z", "im_Z", "p0_raw", "p0_norm"],
        "oracle": ["t", "re_c1", "im_c1", "re_c2", "im_c2", "norm",
                   "p0_oracle", "current"],
        "compare": ["t", "closed_p0", "oracle_p0", "abs_diff"],
        "identities": ["t", "r1", "r2", "r3"],
        "current": ["t", "current", "dcurrent_dt"],
    }
    if cfg.drive == "cosine" and "identities" in wanted:
        schemas["identities"] += ["re_eq24", "im_eq24", "im_eq24_gap"]

    if cfg.t_end == 0.0:
        for kind in wanted:
            out[kind] = TimeSeries(schemas[kind], np.empty((0, len(schemas[kind]))))
        report["empty"] = True
        return out, report

    ts = _output_grid(cfg)

    closed = None
    if {"closed", "compare"} & set(wanted):
        closed = closedform.dressed_series(atom, drv, ts, branch,
                                           tols.quad_tol, tols)

    prop = None
    if {"oracle", "compare", "current"} & set(wanted):
        c0 = _initial_state(cfg, atom, drv)
        prop = oracle.propagate(atom, drv, c0, cfg.t_end, cfg.dt, branch,
                                output_stride=cfg.output_stride, tol=tols)
        report["norm_drift"] = prop.step_report.norm_drift
        report["richardson_error"] = prop.step_report.richardson_error
        report["norm_ok"] = prop.step_report.norm_ok

    if "frame" in wanted:
        fr = frames.frame_series(atom, drv, ts, branch, tols)
        out["frame"] = TimeSeries(schemas["frame"], np.column_stack(
            [fr["t"], fr["omega_r"], fr["cos_theta"], fr["sin_theta"],
             fr["dtheta_dt"]]))

    if "closed" in wanted:
        out["closed"] = TimeSeries(schemas["closed"], np.column_stack(
            [ts, closed["phase"].real, closed["phase"].imag,
             closed["p0_raw"], closed["p0_norm"]]))

    if "oracle" in wanted:
        p0o = 2.0 * np.abs(prop.psi0_oracle) ** 2
        out["oracle"] = TimeSeries(schemas["oracle"], np.column_stack(
            [prop.times, prop.c1.real, prop.c1.imag, prop.c2.real,
             prop.c2.imag, prop.norm, p0o, prop.current]))

    if "compare" in wanted:
        closed_cmp = TimeSeries(
            ["t", "p0", "re_psi0", "im_psi0"],
            np.column_stack([ts, closed["p0_raw"], closed["psi0"].real,
                             closed["psi0"].imag]))
        psi0_scaled = math.sqrt(2.0) * prop.psi0_oracle
        oracle_cmp = TimeSeries(
            ["t", "p0", "re_psi0", "im_psi0"],
            np.column_stack([prop.times, np.abs(psi0_scaled) ** 2,
                             psi0_scaled.real, psi0_scaled.imag]))
        rep = oracle.compare(closed_cmp, oracle_cmp)
        report["compare"] = {"MaxAbs": rep.max_abs, "Rms": rep.rms,
                             "PhaseSlip": rep.phase_slip}
        diff = closed_cmp.column("p0") - oracle_cmp.column("p0")
        out["compare"] = TimeSeries(schemas["compare"], np.column_stack(
            [ts, closed_cmp.column("p0"), oracle_cmp.column("p0"),
             np.abs(diff)]))

    if "identities" in wanted:
        r1, r2, r3 = frames.identity_residuals(atom, drv, ts, branch, tols)
        # r2/r3 differentiate the coupling envelope |J|, which has a kink at
        # every coupling zero; rows whose stencil straddles one are reported
        # as NaN (the identities presume a differentiable envelope there)
        zeros = np.asarray(drv.coupling_zero_times(0.0, float(ts[-1]) + 1.0))
        if len(zeros) and len(ts):
            dist = np.min(np.abs(ts[:, None] - zeros[None, :]), axis=1)
            straddle = dist <= 5.0 * tols.fd_step
            r2 = np.where(straddle, np.nan, r2)
            r3 = np.where(straddle, np.nan, r3)
        cols = [ts, r1, r2, r3]
        if cfg.drive == "cosine":
            eq24 = np.array([closedform.psi0_gamma_zero_integrand(atom, drv, t)
                             if abs(frames.rabi_frequency(
                                 atom, drv, t, BranchMode.POSITIVE_ROOT, tols)) > 1e-9
                             else complex(np.nan, np.nan) for t in ts])
            dth = frames.connection_dtheta(atom, drv, ts, branch, tols)
            cols += [eq24.real, eq24.imag, np.abs(eq24.imag - dth)]
        out["identities"] = TimeSeries(schemas["identities"], np.column_stack(cols))

        def _finite_max(a):
            a = np.abs(a[np.isfinite(a)])
            return float(np.max(a)) if len(a) else 0.0

        report["identities_max"] = {"r1": _finite_max(r1), "r2": _finite_max(r2),
                                    "r3": _finite_max(r3)}

    if "current" in wanted:
        dcur = np.gradient(prop.current, prop.times) if len(prop.times) > 2 \
            else np.zeros_like(prop.current)
        out["current"] = TimeSeries(schemas["current"], np.column_stack(
            [prop.times, prop.current, dcur]))
        try:
            fit = oracle.current_dynamics_check(prop, atom, drv, branch, tols)
            report["current_fit"] = {"status": fit.status,
                                     "correlation": fit.correlation,
                                     "amplitude": fit.amplitude,
                                     "n_periods": fit.n_periods}
        except DressedAtomError as exc:  # InsufficientSpan stays a report entry
            report["current_fit"] = {"status": type(exc).__name__,
                                     "detail": str(exc)}

    return out, report


def dominant_frequency(ts: np.ndarray, xs: np.ndarray) -> float:
    """Angular frequency of the strongest nonzero FFT bin of a sampled signal.

    Assumes uniform sampling; the record length is n*dt, which is exact for
    endpoint-exclusive grids.
    """
    xs = np.asarray(xs, dtype=float)
    if len(xs) < 4:
        return 0.0
    amp = np.abs(np.fft.rfft(xs - xs.mean()))
    if amp[1:].size == 0 or np.max(amp[1:]) == 0.0:
        return 0.0
    k = 1 + int(np.argmax(amp[1:]))
    span = (ts[1] - ts[0]) * len(ts)
    return 2.0 * math.pi * k / span if span > 0 else 0.0


_SWEEPABLE = ("j0", "omega", "e1", "e2", "gamma0", "t_end", "dt",
              "omega_tilde", "quad_tol")


def sweep(base: ScenarioConfig, axis: str, values) -> tuple[TimeSeries, list[dict]]:
    """Run the base scenario once per axis value; summarise each run.

    ``omega_tilde`` is a derived axis: it re-solves e2 for each value.
    """
    if axis not in _SWEEPABLE:
        raise UnknownAxis(f"axis {axis!r} is not a sweepable numeric field")
    rows = []
    reports = []
    for v in values:
        if axis == "omega_tilde":
            cfg = replace(base, e2=base.e1 + base.hbar * (2.0 * float(v) + base.omega))
        else:
            cfg = replace(base, **{axis: float(v)})
        need = set(cfg.output_list()) | {"closed", "oracle", "compare"}
        cfg = replace(cfg, outputs=",".join(sorted(need)))
        out, rep = run_scenario(cfg)
        closed_p0 = out["compare"].column("closed_p0")
        oracle_p0 = out["compare"].column("oracle_p0")
        tgrid = out["compare"].t
        rows.append([
            float(v),
            rep["compare"]["MaxAbs"],
            rep["compare"]["Rms"],
            float(np.max(closed_p0)) if len(closed_p0) else 0.0,
            float(np.max(oracle_p0)) if len(oracle_p0) else 0.0,
            dominant_frequency(tgrid, closed_p0),
        ])
        reports.append(rep)
    table = TimeSeries(
        [axis, "max_abs", "rms", "peak_closed_p0", "peak_oracle_p0",
         "dominant_freq"],
        np.array(rows, dtype=float) if rows else np.empty((0, 6)),
        monotonic=False)
    return table, reports
