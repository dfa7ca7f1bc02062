"""Run one hexdrop CLI command the way users run it, and stamp its phases.

Usage: python3 bench/child.py STAMP_PATH CLI_ARG ...

A fresh interpreter imports ``hexdrop.cli`` from ``src`` (the package is
not installed) and calls ``main(argv)``.  Before exiting it writes two
numbers to STAMP_PATH: the ``time.perf_counter()`` readings at the end of
the import and at the return of ``main``.  On Linux
``perf_counter`` reads CLOCK_MONOTONIC, so the parent compares them with
its own readings taken around the spawn.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from hexdrop.cli import main  # noqa: E402

t_import = time.perf_counter()
code = main(sys.argv[2:])
t_main = time.perf_counter()
with open(sys.argv[1], "w", encoding="ascii") as fh:
    fh.write(f"{t_import!r} {t_main!r}\n")
sys.exit(code)
