"""Traced ``repro serve``: install the layer wrappers, then serve.

Usage: ``python perfbench/traced_server.py --spans-out FILE -- serve ARGS``.
The serve arguments go to ``repro.cli.main`` unchanged, so the server is
the deployed one plus the wrappers.  Spans are written to FILE when the
server stops (admin ``shutdown``).
"""

from __future__ import annotations

import os
import sys


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, root)
    from perfbench.layers import install_server
    from perfbench.spans import Tracer
    from repro import cli

    tracer = Tracer()
    install_server(tracer)
    try:
        return cli.main(argv[3:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
