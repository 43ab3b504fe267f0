"""Command-line front end: one subcommand per experiment kind.

Exit codes: 0 on success, 1 on configuration or validation errors, 2 on
numeric failures (degenerate inputs, divergence, singular matrices).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core import DegenerateInputError, DivergenceError
from .harness import KINDS, resolve_config, run

_NUMERIC_ERRORS = (
    DegenerateInputError,
    DivergenceError,
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
    np.linalg.LinAlgError,
)

_VALIDATION_ERRORS = (ValueError, KeyError, TypeError, OSError)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON config file (kind/seed/out_dir/params)")
    common.add_argument("--seed", type=int, default=None,
                        help="run seed (overrides the config file)")
    common.add_argument("--out", type=Path, default=None,
                        help="artifact directory (default runs/KIND)")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="parameter override, JSON-parsed; repeatable")
    parser = argparse.ArgumentParser(
        prog="pfc",
        description="Seeded collapse experiments writing CSV/JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind in KINDS:
        sub.add_parser(kind, parents=[common], help=f"run the {kind} experiment")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(
            kind=args.kind,
            config_path=args.config,
            seed=args.seed,
            out_dir=args.out,
            overrides=args.overrides,
        )
        manifest = run(config)
    except _NUMERIC_ERRORS as exc:
        print(f"pfc {args.kind}: numeric failure: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"pfc {args.kind}: invalid run: {exc}", file=sys.stderr)
        return 1
    print(f"pfc {args.kind}: wrote {len(manifest['artifacts'])} artifacts to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
