"""``python -m soddy`` with tracing on: the op of the traced cli workload.

Usage: python bench/cli_shim.py SPANS_PATH SUBCOMMAND [ARGS...]

Behaves like ``python -m soddy SUBCOMMAND ARGS...`` (same stdout envelope
and exit code) and writes the spans of the call to SPANS_PATH.
"""

import sys

import spans

import soddy.cli

tracer = spans.Tracer()
tracer.install()
tracer.op = 0  # the op span is the worker's, around this whole process
code = soddy.cli.run(sys.argv[2:])
tracer.dump(sys.argv[1])
sys.exit(code)
