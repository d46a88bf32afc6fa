"""Run the chowforge CLI with the per-layer wrappers installed.

Usage: traced_cli.py OPERATION_ID [chowforge arguments...]

Standard output and the exit status are the CLI's own.  The trace goes to the
last line of standard error, prefixed with ``TRACE_MARKER``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402

TRACE_MARKER = "perfbench-trace "


def main() -> int:
    op_id, argv = sys.argv[1], sys.argv[2:]
    from chowforge import cli

    tracer = Tracer()
    tracer.install()
    tracer.op_id = op_id
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARKER + json.dumps(tracer.snapshot()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
