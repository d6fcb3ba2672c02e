"""Run one modeconv CLI command with layer tracing, in its own interpreter.

Usage: python3 bench/cli_launcher.py SPANS_PATH OP_ID CLI_ARGS...

Installs the tracer's wrappers, calls ``modeconv.cli.main(CLI_ARGS)`` under a
``cli.main`` span, writes the spans to SPANS_PATH and exits with the code
``main`` returned.  The traced cli_bundles run starts each command this way.
"""

import sys

import env

env.use_checkout_source()

import modeconv.cli  # noqa: E402
import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, op = argv[0], int(argv[1])
    tracer = tracing.Tracer()
    tracer.op = op
    with tracer:
        code = tracer.wrap("cli.main", modeconv.cli.main)(argv[2:])
    tracing.write_spans(spans_path, tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
