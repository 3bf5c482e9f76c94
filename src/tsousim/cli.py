"""Command-line entry points.

Three subcommands:

* ``tsousim simulate``  - write skeleton trajectories as CSV;
* ``tsousim cumulants`` - run a Monte Carlo cumulant experiment and write
  the err% table as CSV;
* ``tsousim validate``  - run the module invariant suite and print/write
  the text report (exit code 1 on failure).

A plain-text config file named by the ``TSOUSIM_CONFIG`` environment
variable supplies defaults as ``key = value`` lines (``#`` comments);
command-line flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, get_type_hints

from .harness import (
    METHODS,
    PROCESS_KINDS,
    ExperimentConfig,
    _check_writable,
    _writing,
    export_trajectories,
    run_experiment,
    validate_suite,
)

_CONFIG_ENV = "TSOUSIM_CONFIG"

# ExperimentConfig fields by name: each is a config-file key and a ``--name``
# flag, whose type and default come from the field.
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_HINTS = get_type_hints(ExperimentConfig)
_TYPES = {
    key: _HINTS[f.name] if _HINTS[f.name] in (int, float) else str
    for key, f in _FIELDS.items()
}
_CHOICES = {"process": PROCESS_KINDS, "method": METHODS}


def load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; an unknown or repeated key is an error."""
    values: dict = {}
    set_on: dict = {}  # key -> the line that set it
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in _FIELDS:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in set_on:
                    raise ValueError(
                        f"{path}:{lineno}: config key {key!r} is already set on line {set_on[key]}"
                    )
                set_on[key] = lineno
                try:
                    values[key] = _TYPES[key](value)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    except OSError as exc:
        raise OSError(f"cannot read config file {path!r}: {exc}") from exc
    return values


def _experiment_parser(sub, name: str, help_: str) -> None:
    p = sub.add_parser(name, help=help_)
    for key in _FIELDS:
        p.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=_TYPES[key], choices=_CHOICES.get(key)
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsousim",
        description="Exact simulation of tempered-stable Ornstein-Uhlenbeck processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _experiment_parser(sub, "simulate", "write skeleton trajectories as CSV")
    _experiment_parser(sub, "cumulants", "Monte Carlo cumulant err% table")
    v = sub.add_parser("validate", help="run the invariant validation suite")
    v.add_argument("--out")
    return parser


def _build_config(args: argparse.Namespace, file_values: dict) -> ExperimentConfig:
    """Config from the file values, overridden by flags; unset fields keep
    their ExperimentConfig defaults.  The run validates it."""
    merged = dict(file_values)
    for key in _FIELDS:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
    missing = [
        key for key, f in _FIELDS.items() if f.default is dataclasses.MISSING and key not in merged
    ]
    if missing:
        raise SystemExit(f"missing required parameters: {', '.join(missing)}")
    return ExperimentConfig(**merged)


def main(argv: Optional[list] = None) -> int:
    """Run one command; an OSError (its message names the file), a
    MemoryError (an allocation the host cannot hold) or a ValueError (an
    invalid configuration or a refused run) exits with a one-line message."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except OSError as exc:
        raise SystemExit(str(exc)) from exc
    except MemoryError as exc:
        raise SystemExit(f"cannot allocate: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(f"invalid configuration: {exc}") from exc


def _run(args: argparse.Namespace) -> int:
    if args.command == "validate":
        if args.out:
            _check_writable(args.out, "report")
        report = validate_suite()
        text = report.to_text()
        sys.stdout.write(text)  # before the file, which may still fail
        if args.out:
            with _writing(args.out, "report") as fh:
                fh.write(text)
        return 0 if report.passed else 1

    config_path = os.environ.get(_CONFIG_ENV)
    cfg = _build_config(args, load_config_file(config_path) if config_path else {})
    if args.command == "simulate":
        path = export_trajectories(cfg)
        print(f"wrote {cfg.paths} trajectories ({cfg.steps} steps) to {path}")
        return 0

    table = run_experiment(cfg)
    for row in table.rows:
        print(
            f"k{row.k_order}: true={row.true:.6e} est={row.estimated:.6e} "
            f"err%={row.err_pct:+.3f} se={row.se:.3e}"
        )
    if cfg.out:
        print(f"wrote err table to {cfg.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
