"""Run ``repro serve`` in this process, optionally timing its codec and pump.

Usage: ``python3 perfbench/serve_launcher.py --trace-out FILE serve ...``
passes everything after ``--trace-out FILE`` to the ``repro`` command
line.  With an empty ``FILE`` nothing is wrapped and the process is a
plain ``repro serve``.  Otherwise the server's ``unpack_floats``,
``pack_array`` and ``SessionBatch.push_many`` are timed, and their
spans are written to ``FILE`` when the server exits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, layers  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default="")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    common.ensure_src()
    from repro.cli import main as repro_main

    tracer = Tracer()
    if args.trace_out:
        layers.install_server(tracer)
        tracer.enabled = True
    try:
        return repro_main(args.repro_args)
    finally:
        if args.trace_out:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
