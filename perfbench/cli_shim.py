"""Traced stand-in for ``python -m coxfan.cli``.

Installs the span wrappers, runs ``coxfan.cli.main`` on the given
arguments, and writes the spans to $PERFBENCH_SPANS when the process
ends, whatever way ``main`` exits.  Spans carry the op id $PERFBENCH_OP.
"""

import os
import sys

import tracer as tracing

if __name__ == "__main__":
    t = tracing.Tracer()
    t.install()
    t.op = int(os.environ["PERFBENCH_OP"])
    from coxfan import cli

    try:
        code = cli.main(sys.argv[1:])
    finally:
        t.uninstall()
        t.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)
