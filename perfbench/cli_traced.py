"""Run one resonatorlab CLI command with every layer traced.

Usage: python cli_traced.py SPANS_JSON ARG...  (with the package on PYTHONPATH)

Behaves like ``python -m resonatorlab.cli ARG...`` (same stdout, report and
exit code) and writes the spans of the run to SPANS_JSON: one ``cli.import``
span for importing the CLI module, then ``cli.main`` and everything below it.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.region("cli.import"):
            import resonatorlab.cli as cli
        tracer.install()
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse exits after --version and usage errors
            return exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 2
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
