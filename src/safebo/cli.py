"""Command-line front end for the experiment harness.

Subcommands: ``run`` executes a config or preset battery, ``scale-study``
tabulates scenario counts over accuracy knobs, ``beta-report`` derives
the multiplier-growth diagnostic from an emitted run CSV, and
``presets`` lists the bundled configurations.  Exit codes: 0 on success,
2 on configuration problems and on flags a subcommand does not take, 3
when a confidence collapse aborts a strict run.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .confidence import ConfidenceCollapse
from .harness import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    beta_growth_report,
    emit,
    run_experiment,
    scaling_study,
)
from .optimizer import BETA_MODES

log = logging.getLogger("safebo")


def _configure_logging() -> None:
    level_name = os.environ.get("SAFE_BO_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", type=Path, help="output directory or file")

    parser = argparse.ArgumentParser(
        prog="safebo",
        description="Safe Bayesian optimization experiments with scenario noise bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[shared], help="run an experiment battery")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="path to an experiment config JSON")
    source.add_argument("--preset", choices=sorted(PRESETS), help="bundled configuration")
    run.add_argument(
        "--seed",
        type=int,
        action="append",
        help="seed to run (repeatable; overrides the config's seed list)",
    )
    run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    run.add_argument(
        "--max-iterations", type=int, help="override the config's iteration cap"
    )
    run.add_argument(
        "--mode",
        action="append",
        choices=BETA_MODES,
        help="safety-multiplier mode to run (repeatable; overrides the config)",
    )
    run.add_argument(
        "--strict",
        action="store_true",
        help="treat a confidence collapse as fatal instead of resetting",
    )

    scale = sub.add_parser(
        "scale-study", parents=[shared], help="tabulate minimal scenario counts"
    )
    scale.add_argument("--nu", type=float, action="append", help="violation level (repeatable)")
    scale.add_argument(
        "--kappa", type=float, action="append", help="confidence level (repeatable)"
    )
    scale.add_argument(
        "--outputs", type=int, action="append", help="output count (repeatable)"
    )
    scale.add_argument("--t", type=int, action="append", help="iteration index (repeatable)")

    beta = sub.add_parser(
        "beta-report", parents=[shared], help="multiplier growth diagnostic from a run CSV"
    )
    beta.add_argument("--trace", type=Path, required=True, help="emitted run CSV")

    sub.add_parser("presets", help="list bundled configurations")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict = {}
    if args.seed:
        overrides["seeds"] = list(args.seed)
    if args.max_iterations is not None:
        overrides["max_iterations"] = args.max_iterations
    if args.mode:
        overrides["beta_modes"] = list(args.mode)
    if args.strict:
        overrides["collapse_policy"] = "error"

    if args.preset:
        return ExperimentConfig.from_preset(args.preset, overrides)
    try:
        document = json.loads(args.config.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {args.config}: {err}") from err
    document.update(overrides)
    return ExperimentConfig.from_dict(document)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = args.out or Path("results") / config.name
    result = run_experiment(config, jobs=max(1, args.jobs))
    paths = emit(result, out)
    for mode, stats in result.summary["aggregate"].items():
        log.info(
            "%s: %d runs, %d experiments, %d violations",
            mode,
            stats["runs"],
            stats["experiments"],
            stats["violations"],
        )
    print(f"wrote {len(paths)} files under {out}")
    return 0


def _write_table(rows: list[dict], out: Path | None) -> None:
    """Write ``rows`` as CSV to ``out``, or to standard output without one."""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row.values()))
    text = "\n".join(lines) + "\n"
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _cmd_scale_study(args: argparse.Namespace) -> int:
    rows = scaling_study(
        args.nu or [0.1],
        args.kappa or [1e-3],
        args.outputs or [1],
        args.t or [1, 10, 100],
    )
    _write_table(rows, args.out)
    return 0


def _cmd_beta_report(args: argparse.Namespace) -> int:
    lines = args.trace.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    beta_cols = [i for i, name in enumerate(header) if name.startswith("beta")]
    if not beta_cols:
        raise ConfigError(f"{args.trace} does not look like an emitted run CSV")
    beta_bar = [max(float(line.split(",")[i]) for i in beta_cols) for line in lines[1:]]
    rows = beta_growth_report(beta_bar)
    if not rows:
        raise ConfigError("trace holds no iterations")
    _write_table(rows, args.out)
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    sys.stdout.write(json.dumps(PRESETS, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "scale-study": _cmd_scale_study,
        "beta-report": _cmd_beta_report,
        "presets": _cmd_presets,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ConfidenceCollapse as err:
        print(f"confidence collapse: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
