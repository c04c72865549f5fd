"""Command-line front end.

Subcommands: `run`, `check`, `vectors`, `demo`. Diagnostics go to stderr,
data to files or stdout. Exit codes: 0 ok, 1 validation error, 2 runtime
error, 3 I/O error. No scenario that `check` accepts exits 2.
"""

from __future__ import annotations

import argparse
import struct
import sys
from typing import List, Optional

from . import demos
from .knock import KnockFields, SharedKey, format_vector_line
from .frames import Ipv4Address
from .netsim import SimError
from .nic import NicError
from .scenario import ScenarioError, parse_scenario, run_scenario, validate_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloaknic",
        description="Run and inspect cloaking-NIC scenarios on a simulated Ethernet segment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("--scenario", required=True, help="scenario file path")
    _output_flags(run)

    check = sub.add_parser("check", help="validate a scenario file")
    check.add_argument("--scenario", required=True, help="scenario file path")

    vectors = sub.add_parser("vectors", help="generate knock golden vectors")
    vectors.add_argument("--key", required=True, help="shared key, 64 hex chars")
    vectors.add_argument("--count", type=int, default=8, help="number of vectors")
    vectors.add_argument("--out", default=None, help="output file (default stdout)")

    demo = sub.add_parser("demo", help="run a built-in scenario")
    demo.add_argument("name", help=f"one of: {', '.join(sorted(demos.DEMOS))}")
    _output_flags(demo)
    return parser


def _output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trace", default=None, help="trace output file (default stdout)")
    sub.add_argument("--metrics", default=None, help="metrics output file (default stdout)")
    sub.add_argument("--seed", type=int, default=0, help="nonce counter seed")
    sub.add_argument("--hex", action="store_true", help="include raw frame hex in the trace")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout data output")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_trace(handle, trace, with_hex: bool) -> None:
    """Write the trace line by line: each line and its newline, and one
    newline for an empty trace."""
    lines = (record.format_line(with_hex=with_hex) for record in trace)
    handle.write(next(lines, "") + "\n")
    handle.writelines(line + "\n" for line in lines)


def _write_outputs(args, trace, metrics) -> None:
    writers = ((args.trace, lambda handle: _write_trace(handle, trace, args.hex)),
               (args.metrics, lambda handle: handle.write(metrics.to_text())))
    for path, write in writers:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                write(handle)
        elif not args.quiet:
            write(sys.stdout)


def cmd_run(args) -> int:
    trace, metrics = run_scenario(parse_scenario(_read(args.scenario)), seed=args.seed)
    _write_outputs(args, trace, metrics)
    return EXIT_OK


def cmd_check(args) -> int:
    validate_scenario(parse_scenario(_read(args.scenario)))
    print("ok")
    return EXIT_OK


def cmd_vectors(args) -> int:
    """Write the vectors line by line, each as it is made."""
    if args.count < 0:
        raise ValueError("count must be >= 0")
    key = SharedKey.from_hex(args.key)
    client = Ipv4Address.from_str("10.0.0.5")
    lines = (format_vector_line(key, struct.pack(">Q", i), KnockFields(client, 40000, 1000 + i))
             + "\n" for i in range(args.count))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.name not in demos.DEMOS:
        raise ScenarioError(
            f"unknown demo {args.name!r}; valid names: {', '.join(sorted(demos.DEMOS))}")
    trace, metrics = run_scenario(parse_scenario(demos.DEMOS[args.name]), seed=args.seed)
    _write_outputs(args, trace, metrics)
    if not args.quiet:
        print(demos.interpret(args.name, metrics))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": cmd_run, "check": cmd_check,
               "vectors": cmd_vectors, "demo": cmd_demo}[args.command]
    try:
        return handler(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SimError, NicError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
