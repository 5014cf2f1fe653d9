"""Command line interface.

    cirsim run <config> [--seed N] [--out DIR] [--buffer.policy P]
                        [--buffer.size M] [--set key.path=value] [--resume]
    cirsim inspect <config> [--out DIR] [--set ...]
    cirsim analyze <run-dir> [--all]
    cirsim init [--out PATH]

Exit codes: 0 success, 2 config validation failure, 3 runtime failure.
"""

import argparse
import ctypes
import json
import os
import sys

from . import files, harness
from .buffers import POLICIES
from .config import ConfigError, default_config, load_config, resolve_output_dir

# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cirsim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("config", help="path to the experiment config JSON")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (dot path)")
        p.add_argument("--seed", type=int, help="replace the seed list with a single seed")
        p.add_argument("--out", help="override output_dir")
        p.add_argument("--buffer.policy", dest="buffer_policy",
                       choices=POLICIES, help="override buffer.policy")
        p.add_argument("--buffer.size", dest="buffer_size", type=int,
                       help="override buffer.size")
        p.add_argument("--generator.k", dest="generator_k", type=int,
                       help="override generator.k (slot generator)")
        p.add_argument("--generator.n", dest="generator_n", type=int,
                       help="override generator.n (stream length)")

    p_run = sub.add_parser("run", help="execute the strategy x seed grid")
    add_config_args(p_run)
    p_run.add_argument("--resume", action="store_true",
                       help="continue from the latest checkpointed state")

    p_inspect = sub.add_parser("inspect", help="stream statistics without training")
    add_config_args(p_inspect)

    p_analyze = sub.add_parser("analyze", help="checkpoint diagnostics for a finished run")
    p_analyze.add_argument("run_dir", help="run output directory (contains config.json)")
    p_analyze.add_argument("--all", action="store_true", dest="force_all",
                           help="compute all analyses regardless of config toggles")

    p_init = sub.add_parser("init", help="write an example config")
    p_init.add_argument("--out", default="cirsim_config.json")
    return parser


def _collect_overrides(args) -> list[str]:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seeds=[{args.seed}]")
    if args.out is not None:
        overrides.append(f"output_dir={json.dumps(args.out)}")
    if args.buffer_policy is not None:
        overrides.append(f"buffer.policy={json.dumps(args.buffer_policy)}")
    if args.buffer_size is not None:
        overrides.append(f"buffer.size={args.buffer_size}")
    if args.generator_k is not None:
        overrides.append(f"generator.k={args.generator_k}")
    if args.generator_n is not None:
        overrides.append(f"generator.n={args.generator_n}")
    return overrides


def _keep_freed_memory() -> None:
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to
    64 MiB for the rest of the process. Under the 128 KiB defaults every
    numpy temporary above 128 KiB is mapped and unmapped afresh, page
    faults and all; with these the process keeps its freed memory for
    reuse. Without glibc this does nothing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init":
            try:
                files.write_atomic(args.out, json.dumps(default_config(), indent=1) + "\n")
            except OSError as exc:  # no such directory, or a directory in the way
                raise ConfigError(f"cannot write {args.out}: {exc.strerror}") from None
            print(f"wrote example config to {args.out}")
            return harness.EXIT_OK

        if args.command == "analyze":
            code = harness.analyze(args.run_dir, force_all=args.force_all)
            if code == harness.EXIT_OK:
                print(f"analysis written under {args.run_dir}")
            else:
                report = os.path.join(args.run_dir, "error_report.json")
                print(f"analysis failed: see {report}", file=sys.stderr)
            return code

        cfg = load_config(args.config, overrides=_collect_overrides(args))
        out = resolve_output_dir(cfg, os.environ)
        if args.command == "inspect":
            report = harness.inspect(cfg, out_dir=out / "inspect")
            for line in _inspect_lines(report):
                print(line)
            return harness.EXIT_OK

        code = harness.run(cfg, out_dir=out, resume=args.resume)
        if code == harness.EXIT_OK:
            print(f"run complete: {out / 'summary.json'}")
        else:
            print(f"run failed: see {out / 'error_report.json'}", file=sys.stderr)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return harness.EXIT_CONFIG


def _inspect_lines(report: dict) -> list[str]:
    lines = [
        f"classification: {report['classification']}",
        f"experiences: {report['n_experiences']}, classes: {report['num_classes']}",
        f"domain coverage: {report['domain_coverage']:.4f}, "
        f"codomain coverage: {report['codomain_coverage']:.4f}",
    ]
    rates = [r for r in report["repetition_rate"].values() if r is not None]
    if rates:
        lines.append(
            f"repetition rate: min {min(rates):.3f} / mean {sum(rates) / len(rates):.3f} "
            f"/ max {max(rates):.3f}"
        )
    if "fraction_infrequent" in report:
        lines.append(
            f"infrequent classes: {len(report['infrequent_classes'])} "
            f"({report['fraction_infrequent']:.0%})"
        )
    return lines


if __name__ == "__main__":
    sys.exit(main())
