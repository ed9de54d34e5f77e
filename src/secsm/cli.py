"""Command-line entry point: run a configured sweep and export results."""

import argparse
import sys
import tempfile
from pathlib import Path

from .harness import (ConfigError, default_config_text, parse_config,
                      run_sweep, write_outputs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Monte-Carlo secrecy-rate / BER sweep for the four "
                    "receive beamformers.")
    parser.add_argument("--config", metavar="PATH",
                        help="configuration document (see --print-defaults)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (default: output_dir from "
                             "the config)")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="processes, at most one per realization "
                             "and one per usable CPU: this one plus N-1 "
                             "workers (default 1; results are identical "
                             "for any value)")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the complete default configuration "
                             "and exit")
    args = parser.parse_args(argv)

    if args.print_defaults:
        print(default_config_text(), end="")
        return 0
    if not args.config:
        parser.error("--config is required unless --print-defaults is given")
    if args.threads < 1:
        parser.error("--threads must be at least 1")

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg, spec = parse_config(text)
        out = Path(spec.output_dir if args.out is None else args.out)
        # an unwritable output directory fails before the sweep; the
        # probe is an anonymous file, so no file of the user's is touched
        out.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=out).close()
        records = run_sweep(cfg, spec, threads=args.threads)
        write_outputs(records, cfg, spec, out)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} records to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
