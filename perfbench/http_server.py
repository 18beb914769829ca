"""Launch ``python -m repro.serve serve`` with or without tracing.

Usage: ``python3 perfbench/http_server.py [--trace-out PATH] SERVE-ARGS``

Without ``--trace-out`` this is ``repro.serve.__main__.main(SERVE-ARGS)``
and nothing more. With it, the launcher first installs the benchmark's
span wrappers (the same ones the in-process workloads use), then runs
the server until SIGINT, and writes the spans to PATH on the way out.
"""

from __future__ import annotations

import sys

from common import use_source_tree


def main(argv: list[str]) -> int:
    use_source_tree()
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
