"""Run one ``warpdirac`` CLI command in this process, as the console script does.

    python3 bench/launch.py --mark FILE [--setup-only] [--trace FILE] -- <cli args>

``--mark`` names a file that receives the ``time.monotonic()`` reading taken
when ``warpdirac.config.load_config`` returns inside the CLI; the benchmark
subtracts the moment it started this process to get the set-up time.
``--setup-only`` stops right there (a set-up probe).  ``--trace`` installs
the span tracer first and writes the spans to FILE at exit.  The package
must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--mark", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import warpdirac.cli as cli

    tracer = None
    if opts.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    load_config = cli.load_config

    def marked_load_config(path):
        cfg = load_config(path)
        with open(opts.mark, "w", encoding="utf-8") as fh:
            fh.write(repr(time.monotonic()))
        return cfg

    cli.load_config = marked_load_config
    try:
        if opts.setup_only:
            marked_load_config(cli.build_parser().parse_args(cli_args).config)
            return 0
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(opts.trace)


if __name__ == "__main__":
    sys.exit(main())
