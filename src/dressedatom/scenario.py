"""Scenario configuration, runs, and sweeps.

The config surface is a flat JSON object; unknown keys are rejected so a
typo cannot silently fall back to a default.  ``parse_config`` reads the
JSON of ``config_doc`` (the ``config`` entry of report.json) back to the
same config.

Each output kind is declared once, in ``_KINDS``, as its CSV columns after
``t``.  A column is the output of a stage (the closed form, the oracle, the
frame, compare, identities or the current fit), and ``run_scenario`` runs
a stage at most once, when a column first reads it.

``p0_oracle`` in oracle and ``oracle_p0`` in compare are one array, the
oracle's ``p0``.  ``closed_p0`` in compare is the raw (unnormalised)
|psi0|^2 of the closed form, on the psi-bar = 1 scale that the oracle's
projections share; the run report records this choice.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields, replace
from functools import reduce
from types import SimpleNamespace

import numpy as np

from . import __version__, closedform, frames, oracle
from .config import BranchMode, Model
from .drives import ConstantDrive, CosineDrive
from .errors import DressedAtomError, ParseError, UnknownAxis, ValidationError
from .series import TimeSeries

# Each output kind is its columns after t, each read from a stage output by
# its path: the stage's name, then attributes of what the stage returned.
# The eq24 columns (the printed integrand, taken literally) are the cosine
# drive's only.
_KINDS = {
    "frame": {"omega_r": "frame.omega_r", "cos_theta": "frame.cos_theta",
              "sin_theta": "frame.sin_theta", "dtheta_dt": "frame.dtheta_dt"},
    "closed": {"re_Z": "closed.phase.real", "im_Z": "closed.phase.imag",
               "p0_raw": "closed.p0_raw", "p0_norm": "closed.p0_norm"},
    "oracle": {"re_c1": "oracle.c1.real", "im_c1": "oracle.c1.imag",
               "re_c2": "oracle.c2.real", "im_c2": "oracle.c2.imag", "norm": "oracle.norm",
               "p0_oracle": "oracle.p0", "current": "oracle.current"},
    "compare": {"closed_p0": "closed.p0_raw", "oracle_p0": "oracle.p0",
                "abs_diff": "compare.abs_diff"},
    "identities": {"r1": "identities.r1", "r2": "identities.r2", "r3": "identities.r3",
                   "re_eq24": "identities.re_eq24", "im_eq24": "identities.im_eq24",
                   "im_eq24_gap": "identities.im_eq24_gap"},
    "current": {"current": "oracle.current", "dcurrent_dt": "current_fit.dcurrent_dt"},
}
OUTPUT_KINDS = tuple(_KINDS)
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

    def with_omega_tilde(self, omega_tilde: float) -> ScenarioConfig:
        """The config with e2 = e1 + hbar*(2*omega_tilde + omega), the upper
        level at which the detuning is omega_tilde."""
        return replace(self, e2=self.e1 + self.hbar * (2.0 * omega_tilde + self.omega))

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

    The convenience key ``omega_tilde`` may replace ``e2``: it sets e2
    through ``ScenarioConfig.with_omega_tilde``.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError("config document must be a JSON object")

    raw = dict(raw)
    wt = None
    if "omega_tilde" in raw:
        if "e2" in raw:
            raise ParseError("give either 'e2' or 'omega_tilde', not both")
        wt = _number("omega_tilde", raw.pop("omega_tilde"))

    kwargs = {}
    for key, value in raw.items():
        kind = _FIELD_TYPES.get(key)
        if kind is None:
            raise ParseError(f"unknown config key {key!r}")
        if kind == "float":
            value = _number(key, value)
        elif kind == "str" and not isinstance(value, str):
            raise ParseError(f"key {key!r} must be a string")
        elif kind == "int" and (not isinstance(value, int) or isinstance(value, bool)):
            raise ParseError(f"{key} must be an integer")
        kwargs[key] = value
    cfg = ScenarioConfig(**kwargs)
    if wt is not None:
        cfg = cfg.with_omega_tilde(wt)
    cfg.validate()
    return cfg


def config_doc(cfg: ScenarioConfig) -> dict:
    """The config as a flat JSON object: every key, defaults included."""
    return {f.name: getattr(cfg, f.name) for f in fields(ScenarioConfig)}


def _initial_state(cfg: ScenarioConfig, model: Model):
    if cfg.initial_state == "dressed":
        return oracle.initial_state_for_psi_frame(model)
    return oracle.bare_state(1 if cfg.initial_state == "bare1" else 2)


def _finite_max(a: np.ndarray) -> float:
    """The largest |a| over its finite entries; 0 when there are none."""
    a = np.abs(a[np.isfinite(a)])
    return float(np.max(a)) if len(a) else 0.0


def _identities_max(r1, r2, r3) -> dict:
    return {"r1": _finite_max(r1), "r2": _finite_max(r2), "r3": _finite_max(r3)}


def timed(timing: dict, name: str, fn, *args):
    """fn(*args), with its seconds added to ``timing[name]``."""
    start = time.perf_counter()
    value = fn(*args)
    timing[name] = timing.get(name, 0.0) + (time.perf_counter() - start)
    return value


def _read(path: str, stages: dict, done: dict, timing: dict):
    """The stage output at ``path``; the stage runs on the first read, and
    ``done`` keeps what it returned.  Its inputs are read before its timer
    starts, and a read is timed to the stage read (an output such as the
    oracle's c1 is computed on first read), so each stage's entry in
    ``timing`` is its own.  A module function, not a closure: a recursive
    closure is a reference cycle, which would hold a run's arrays until
    the cyclic collector runs."""
    name, *attrs = path.split(".")
    if name not in done:
        stage, inputs = stages[name]
        done[name] = timed(timing, name, stage, *[_read(p, stages, done, timing) for p in inputs])
    return timed(timing, name, reduce, getattr, attrs, done[name])


def run_scenario(cfg: ScenarioConfig) -> tuple[dict[str, TimeSeries], dict]:
    """Produce the requested output series plus a scalar report.

    Deterministic for a fixed config: fixed-step RK4, a closed-form phase,
    and 17-significant-digit CSV serialisation.  The report's ``timing_s``
    holds each stage's seconds (the reads of its outputs included) and the
    ``total``; it is the only entry that differs between runs.
    """
    start = time.perf_counter()
    model = cfg.validate()
    kinds = {kind: {name: path for name, path in cols.items()
                    if cfg.drive == "cosine" or "eq24" not in name}
             for kind, cols in _KINDS.items() if kind in cfg.output_list()}
    report: dict = {
        "detuning": model.omega_tilde,
        "population_convention":
            "closed p0_raw and oracle p0 are both |psi0|^2 on the psi_bar=1 scale",
        "diagnostics": {"version": __version__},
    }
    timing = report["timing_s"] = {}

    if cfg.t_end == 0.0:
        empty = np.empty(0)
        report["empty"] = True
        # an empty span still reports what its kinds report, as zeros
        if "compare" in kinds:
            report["compare"] = oracle.compare(empty, empty)
        if "identities" in kinds:
            report["identities_max"] = _identities_max(empty, empty, empty)
        timing["total"] = time.perf_counter() - start
        return {kind: TimeSeries(["t", *cols], [empty] * (1 + len(cols)))
                for kind, cols in kinds.items()}, report

    ts = oracle.output_grid(cfg.t_end, cfg.dt, cfg.output_stride)

    # the stages call through their modules, so that a caller may rebind them
    def propagate():
        prop = oracle.propagate(model, _initial_state(cfg, model), cfg.t_end,
                                cfg.dt, output_stride=cfg.output_stride)
        steps = vars(prop.step_report)
        report.update((k, steps[k]) for k in ("norm_drift", "richardson_error", "norm_ok"))
        report["diagnostics"].update((k, steps[k]) for k in ("dt", "rk4_steps", "partner_steps"))
        return prop

    def compare(closed, prop):
        report["compare"] = oracle.compare(closed.psi0, prop.psi0_oracle)
        return SimpleNamespace(abs_diff=np.abs(closed.p0_raw - prop.p0))

    def identities():
        r1, r2, r3 = frames.identity_residuals(model, ts)
        report["identities_max"] = _identities_max(r1, r2, r3)
        out = SimpleNamespace(r1=r1, r2=r2, r3=r3)
        if cfg.drive == "cosine":
            eq24 = closedform.psi0_gamma_zero_integrand(model, ts)
            out.re_eq24, out.im_eq24 = eq24.real, eq24.imag
            out.im_eq24_gap = np.abs(out.im_eq24 - frames.connection_dtheta(model, ts))
        return out

    def current_fit(prop):
        try:
            report["current_fit"] = oracle.current_dynamics_check(prop)
        except DressedAtomError as exc:  # InsufficientSpan stays a report entry
            report["current_fit"] = {"status": type(exc).__name__, "detail": str(exc)}
        return prop  # the current kind reads dcurrent_dt through the fit, so the fit runs

    # name: (stage, the stages whose outputs it takes)
    stages = {"closed": (lambda: closedform.dressed_series(model, ts), ()),
              "oracle": (propagate, ()),
              "frame": (lambda: SimpleNamespace(**frames.frame_series(model, ts)), ()),
              "compare": (compare, ("closed", "oracle")),
              "identities": (identities, ()), "current_fit": (current_fit, ("oracle",))}
    done: dict = {}
    # a column that tables share is one array (t, p0_raw, p0, current): CSV formats it once
    out = {kind: TimeSeries(["t", *cols], [ts] + [_read(path, stages, done, timing)
                                                  for path in cols.values()])
           for kind, cols in kinds.items()}
    timing["total"] = time.perf_counter() - start
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
            cfg = base.with_omega_tilde(float(v))
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
