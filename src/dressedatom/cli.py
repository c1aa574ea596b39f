"""Command-line front end.

Subcommands:
    run <config.json> --out <dir>        produce the configured CSV outputs
    sweep <config.json> --axis A --values v1,v2,... --out <dir>
    identities <config.json>             print identity-residual maxima
    accept                               run the acceptance suite

Exit codes: 0 success, 1 validation/parse error, an unwritable --out or a
stdout closed before the output was written (no traceback), 2 numerical
failure or a malformed command line (argparse's usage message), 3
acceptance-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import replace
from functools import cache
from pathlib import Path

from .errors import (DomainError, DressedAtomError, InsufficientSpan,
                     ParseError, StepTooLarge, UnknownAxis, ValidationError)
from .oracle import NORM_TOL
from .scenario import OUTPUT_KINDS, config_doc, parse_config, run_scenario, sweep, timed
from .series import write_csv

_USER_ERRORS = (ParseError, ValidationError, UnknownAxis, DomainError)
_NUMERIC_ERRORS = (StepTooLarge, InsufficientSpan)


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")  # JSON's encoding
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def _write_outputs(outdir: str, series: dict, report: dict, cfg) -> None:
    """Write the run's CSVs, streamed block by block, and report.json;
    remove the CSV of every output kind this run did not write, so that the
    directory holds only what its report lists.  No other file is touched.
    The report's ``timing_s`` gains ``csv``, the seconds of ``write_csv``."""
    report = dict(report, config=config_doc(cfg), timing_s=dict(report["timing_s"]))
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for kind in set(OUTPUT_KINDS) - set(series):
        (out / f"{kind}.csv").unlink(missing_ok=True)
    with ExitStack() as stack:
        files = [stack.enter_context((out / f"{kind}.csv").open("wb")) for kind in series]
        timed(report["timing_s"], "csv", write_csv, list(series.values()), files)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")


def _write_error(outdir: str, exc: OSError) -> int:
    print(f"error: cannot write outputs to {outdir}: {exc.strerror or exc}",
          file=sys.stderr)
    return 1


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if not cfg.output_list():
        raise ValidationError(f"outputs names no output kind: {cfg.outputs!r}")
    series, report = run_scenario(cfg)
    try:
        _write_outputs(args.out, series, report, cfg)
    except OSError as exc:
        return _write_error(args.out, exc)
    if report.get("norm_ok") is False:
        print(f"warning: norm drift {report['norm_drift']:.3e} exceeds the tolerance "
              f"{NORM_TOL:.3e}", file=sys.stderr)
    for key in ("compare", "current_fit", "identities_max"):
        if key in report:
            print(f"{key}: {report[key]}")
    print(f"wrote {', '.join(sorted(series))} to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValidationError("--values must be a comma-separated list of numbers")
    if not values:
        raise ValidationError("--values is empty")
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ValidationError(f"--values must be finite numbers, got {bad[0]}")
    table, reports = sweep(cfg, args.axis, values)
    for v, rep in zip(values, reports):
        if rep["status"] != "ok":
            print(f"sweep point {args.axis}={v!r} failed: {rep['status']}: {rep['detail']}",
                  file=sys.stderr)
    text = table.to_csv()
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.csv").write_text(text, encoding="utf-8")
        (out / "sweep_report.json").write_text(
            json.dumps(reports, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    except OSError as exc:
        return _write_error(args.out, exc)
    print(text, end="")
    return 0


def _cmd_identities(args) -> int:
    cfg = _load_config(args.config)
    series, report = run_scenario(replace(cfg, outputs="identities"))
    print(json.dumps(report["identities_max"], indent=2, sort_keys=True))
    return 0


def _cmd_accept(args) -> int:
    # imported here: the suite loads numpy.polynomial, which run, sweep and
    # identities do not need
    from . import acceptance

    return acceptance.main()


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every caller, which
    must not change it; each ``parse_args`` returns a new Namespace."""
    p = argparse.ArgumentParser(prog="dressedatom",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep one numeric config field")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--axis", required=True)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    sweep_p.add_argument("--out", required=True)
    sweep_p.set_defaults(fn=_cmd_sweep)

    id_p = sub.add_parser("identities", help="print identity residual maxima")
    id_p.add_argument("config")
    id_p.set_defaults(fn=_cmd_identities)

    acc_p = sub.add_parser("accept", help="run the acceptance suite")
    acc_p.set_defaults(fn=_cmd_accept)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (``dressedatom ... | head``): point fd 1 at
        # devnull, so that the flush at exit does not raise it again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 1
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except DressedAtomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
