"""Traced stand-in for ``python -m starcouplings.cli``.

    python benchmarks/cli_child.py SPANS_JSON CLI_ARGS...

Runs the CLI's main() on CLI_ARGS with spans around the import of
starcouplings.cli, around main(), and around every call main() makes into
the library names the cli module imports (an evaluator that such a call
returns is traced too).  The spans and the time this script started are
written to SPANS_JSON; stdout and the exit code are the CLI's own.
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402

from spans import Tracer  # noqa: E402

#: library functions starcouplings.cli imports and calls
LIBRARY_NAMES = ("convergence_sweep", "make_coupling", "rescale_length",
                 "to_ab", "unitarity_defect", "validate_ab",
                 "compare_kernels", "fd_resolvent_halfline",
                 "fd_resolvent_star", "halfline_kernel", "star_green",
                 "s_matrix")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import starcouplings.cli as cli

    def library(name, fn):
        traced = tracer.wrap(f"cli.compute.{name}", fn)

        def call(*args, **kwargs):
            result = traced(*args, **kwargs)
            if callable(result):
                return tracer.wrap(f"cli.compute.{name}.eval", result)
            return result
        return call

    for name in LIBRARY_NAMES:
        setattr(cli, name, library(name, getattr(cli, name)))
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
            sys.stdout.flush()
    finally:
        tracer.dump(spans_path, started=STARTED)
    return code


if __name__ == "__main__":
    sys.exit(main())
