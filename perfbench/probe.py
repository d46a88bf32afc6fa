"""Program-side set-up of one workload, for timing ``setup_s``.

Usage: probe.py WORKLOAD

Starts the interpreter, imports chowforge from this checkout's ``src/`` and
runs the workload's ``setup()``; the caller times the whole process.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](seed=0).setup()
