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
from .config import BranchMode, Model
from .drives import ConstantDrive, CosineDrive
from .errors import (DegenerateFrameError, DressedAtomError, ParseError,
                     UnknownAxis, ValidationError)
from .series import TimeSeries

OUTPUT_KINDS = ("frame", "closed", "oracle", "compare", "identities", "current")
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

    def validate(self) -> Model:
        """Check the config keys; the model built last checks the rest
        (j0 >= 0, omega > 0, finiteness) and is returned."""
        if self.drive not in _DRIVES:
            raise ValidationError(f"drive must be one of {_DRIVES}")
        if self.branch not in _BRANCHES:
            raise ValidationError("branch must be 'smooth' or 'positive'")
        if self.initial_state not in _INITIAL_STATES:
            raise ValidationError(f"initial_state must be one of {_INITIAL_STATES}")
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
            if kind not in OUTPUT_KINDS:
                raise ValidationError(f"unknown output kind {kind!r}")
        return self.model()

    def output_list(self) -> list[str]:
        return [k.strip() for k in self.outputs.split(",") if k.strip()]

    def model(self) -> Model:
        """The model in natural units: energies and couplings divided by hbar.

        The rotating-wave drive is the constant envelope j0 of its
        connection frame, so "rwa" builds ``ConstantDrive(j0)``; Omega comes
        from the config for every drive.  Raises ValidationError when a
        derived value is not finite or the drive rejects its parameters.
        """
        h = self.hbar
        if not math.isfinite(self.e2 - h * self.omega):
            raise ValidationError("recoil-shifted level e2 - hbar*omega is not finite")
        e1, e2, j0 = self.e1 / h, self.e2 / h, self.j0 / h
        if self.drive == "cosine":
            drive = CosineDrive(j0=j0, omega=self.omega)
        else:
            drive = ConstantDrive(j0=j0, gamma0=self.gamma0 / h)
        return Model(omega_tilde=0.5 * ((e2 - e1) - self.omega),
                     off=0.5 * (e1 + e2) - 0.5 * self.omega, omega=self.omega,
                     drive=drive, branch=_BRANCHES[self.branch])


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


def config_doc(cfg: ScenarioConfig) -> dict:
    """The config as a flat JSON object: every key, defaults included."""
    return {f.name: getattr(cfg, f.name) for f in fields(ScenarioConfig)}


def serialize_config(cfg: ScenarioConfig) -> str:
    return json.dumps(config_doc(cfg), indent=2, sort_keys=True) + "\n"


def _initial_state(cfg: ScenarioConfig, model: Model):
    if cfg.initial_state == "dressed":
        try:
            return oracle.initial_state_for_psi_frame(model)
        except DegenerateFrameError as exc:  # e.g. omega_tilde = j0 = 0
            raise ValidationError(f"initial_state 'dressed' needs a dressed "
                                  f"frame at t = 0 ({exc}); use bare1 or bare2") from None
    return oracle.bare_state(1 if cfg.initial_state == "bare1" else 2)


def _finite_max(a: np.ndarray) -> float:
    """The largest |a| over its finite entries; 0 when there are none."""
    a = np.abs(a[np.isfinite(a)])
    return float(np.max(a)) if len(a) else 0.0


def _identities_max(r1, r2, r3) -> dict:
    return {"r1": _finite_max(r1), "r2": _finite_max(r2), "r3": _finite_max(r3)}


def _compare_entry(closed_psi0, oracle_psi0) -> dict:
    rep = oracle.compare(closed_psi0, oracle_psi0)
    return {"MaxAbs": rep.max_abs, "Rms": rep.rms, "PhaseSlip": rep.phase_slip}


def run_scenario(cfg: ScenarioConfig) -> tuple[dict[str, TimeSeries], dict]:
    """Produce the requested output series plus a scalar report.

    Deterministic for a fixed config: fixed-step RK4, a closed-form phase,
    and 17-significant-digit CSV serialisation.
    """
    model = cfg.validate()
    wanted = cfg.output_list()
    report: dict = {
        "detuning": model.omega_tilde,
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
        empty = np.empty(0)
        for kind in wanted:
            out[kind] = TimeSeries(schemas[kind], [empty] * len(schemas[kind]))
        report["empty"] = True
        # an empty span still reports what its kinds report, as zeros
        if "compare" in wanted:
            report["compare"] = _compare_entry(empty, empty)
        if "identities" in wanted:
            report["identities_max"] = _identities_max(empty, empty, empty)
        return out, report

    ts = oracle.output_grid(cfg.t_end, cfg.dt, cfg.output_stride)

    closed = None
    if {"closed", "compare"} & set(wanted):
        closed = closedform.dressed_series(model, ts)

    prop = None
    if {"oracle", "compare", "current"} & set(wanted):
        prop = oracle.propagate(model, _initial_state(cfg, model), cfg.t_end,
                                cfg.dt, output_stride=cfg.output_stride)
        report["norm_drift"] = prop.step_report.norm_drift
        report["richardson_error"] = prop.step_report.richardson_error
        report["norm_ok"] = prop.step_report.norm_ok

    # a column that tables share is one array (t, p0_raw, current): CSV formats it once
    if "frame" in wanted:
        fr = frames.frame_series(model, ts)
        out["frame"] = TimeSeries(schemas["frame"], [
            ts, fr["omega_r"], fr["cos_theta"], fr["sin_theta"], fr["dtheta_dt"]])

    if "closed" in wanted:
        out["closed"] = TimeSeries(schemas["closed"], [
            ts, closed.phase.real, closed.phase.imag, closed.p0_raw,
            closed.p0_norm])

    if "oracle" in wanted:
        p0o = 2.0 * np.abs(prop.psi0_oracle) ** 2
        out["oracle"] = TimeSeries(schemas["oracle"], [
            ts, prop.c1.real, prop.c1.imag, prop.c2.real, prop.c2.imag,
            prop.norm, p0o, prop.current])

    if "compare" in wanted:
        psi0_scaled = math.sqrt(2.0) * prop.psi0_oracle
        report["compare"] = _compare_entry(closed.psi0, psi0_scaled)
        oracle_p0 = np.abs(psi0_scaled) ** 2
        out["compare"] = TimeSeries(schemas["compare"], [
            ts, closed.p0_raw, oracle_p0, np.abs(closed.p0_raw - oracle_p0)])

    if "identities" in wanted:
        r1, r2, r3 = frames.identity_residuals(model, ts)
        cols = [ts, r1, r2, r3]
        if cfg.drive == "cosine":
            re24 = np.full(len(ts), np.nan)
            im24 = np.full(len(ts), np.nan)
            # the printed form takes the positive root
            positive = replace(model, branch=BranchMode.POSITIVE_ROOT)
            ok = frames.rabi_frequency(positive, ts) > 1e-9
            eq24 = closedform.psi0_gamma_zero_integrand(model, ts[ok])
            re24[ok], im24[ok] = eq24.real, eq24.imag
            dth = frames.connection_dtheta(model, ts)
            cols += [re24, im24, np.abs(im24 - dth)]
        out["identities"] = TimeSeries(schemas["identities"], cols)
        report["identities_max"] = _identities_max(r1, r2, r3)

    if "current" in wanted:
        dcur = np.gradient(prop.current, prop.times) if len(prop.times) > 2 \
            else np.zeros_like(prop.current)
        out["current"] = TimeSeries(schemas["current"], [ts, prop.current, dcur])
        try:
            fit = oracle.current_dynamics_check(prop, model)
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
              "omega_tilde")


def _sweep_point(cfg: ScenarioConfig) -> tuple[list, dict]:
    """The summary row of one sweep point, and its report; the point's
    series are freed on return, before the next point runs."""
    out, rep = run_scenario(cfg)
    closed_p0 = out["compare"].column("closed_p0")
    oracle_p0 = out["compare"].column("oracle_p0")
    return [
        rep["compare"]["MaxAbs"],
        rep["compare"]["Rms"],
        float(np.max(closed_p0)) if len(closed_p0) else 0.0,
        float(np.max(oracle_p0)) if len(oracle_p0) else 0.0,
        dominant_frequency(out["compare"].t, closed_p0),
    ], rep


def sweep(base: ScenarioConfig, axis: str, values) -> tuple[TimeSeries, list[dict]]:
    """Run the base scenario once per axis value; summarise each run.

    ``omega_tilde`` is a derived axis: it re-solves e2 for each value.
    Each report has a ``status``: "ok", or the class of the error that
    stopped the point, with its ``detail``; a failed point's row holds
    the axis value and NaN metrics.  A sweep with no successful point
    raises the first point's error.
    """
    if axis not in _SWEEPABLE:
        raise UnknownAxis(f"axis {axis!r} is not a sweepable numeric field")
    rows = []
    reports = []
    first_error = None  # only the first is kept: its frames hold that run's arrays
    for v in values:
        if axis == "omega_tilde":
            cfg = replace(base, e2=base.e1 + base.hbar * (2.0 * float(v) + base.omega))
        else:
            cfg = replace(base, **{axis: float(v)})
        need = set(cfg.output_list()) | {"compare"}
        cfg = replace(cfg, outputs=",".join(sorted(need)))
        try:
            row, rep = _sweep_point(cfg)
        except DressedAtomError as exc:
            if first_error is None:
                first_error = exc
            row, rep = [math.nan] * 5, {"status": type(exc).__name__, "detail": str(exc)}
        else:
            rep["status"] = "ok"
        rows.append([float(v)] + row)
        reports.append(rep)
    if first_error is not None and not any(r["status"] == "ok" for r in reports):
        raise first_error
    table = TimeSeries(
        [axis, "max_abs", "rms", "peak_closed_p0", "peak_oracle_p0",
         "dominant_freq"],
        list(np.array(rows, dtype=float).reshape(-1, 6).T), monotonic=False)
    return table, reports
