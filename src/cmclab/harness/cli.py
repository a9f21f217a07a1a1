"""Command line entry point.

Exit codes: 0 success, 1 experiment anomaly (truncated trace, trend
violation, failed verification checks), 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..errors import CapacityError, CmclabError, ConfigError
from . import experiments
from .config import load_config
from .verify import run_verify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmclab",
        description="Constant-mean-curvature surface laboratory for "
                    "asymptotically flat backgrounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, txt in (
        ("verify", "run the numerical self-check battery"),
        ("foliate", "trace a constant-mean-curvature foliation"),
        ("scan", "audit the outlying translated family"),
        ("expand", "fit the isoperimetric deficit expansion per mode"),
    ):
        p = sub.add_parser(name, help=txt)
        p.add_argument("--config", metavar="PATH",
                       help="key = value configuration file")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (default: out)")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override the corpus seed")
        p.add_argument("--workers", type=int, metavar="N",
                       help="override the worker count")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override any config key")
    return parser


def _flag_overrides(args) -> dict:
    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.workers is not None:
        overrides["workers"] = str(args.workers)
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, flag_overrides=_flag_overrides(args))
        if args.command == "verify":
            report = run_verify(config)
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "verify.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
            for check in report["checks"]:
                mark = "ok  " if check["passed"] else "FAIL"
                print(f"{mark} {check['name']}: value={check['value']:.3e} "
                      f"bound={check['bound']:.3e}"
                      + (f" ({check['error']})" if "error" in check else ""))
            n_fail = len(report["failures"])
            print(f"{len(report['checks'])} checks, {n_fail} failures")
            return 0 if n_fail == 0 else 1
        runner = {"foliate": experiments.run_foliate,
                  "scan": experiments.run_scan,
                  "expand": experiments.run_expand}[args.command]
        status, messages = runner(config, args.out)
        for line in messages:
            print(line, file=sys.stderr if status else sys.stdout)
        print(f"{args.command}: wrote {args.out}/ (status {status})")
        return status
    except (ConfigError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CmclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
