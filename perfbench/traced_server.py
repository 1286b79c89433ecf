"""Start the service with the per-layer wrappers installed.

    python -m perfbench.traced_server --spans PATH -- [repro.service args]

Installs :data:`perfbench.layers.HOOKS` inside the server process, calls
the same ``repro.service`` entry point an untraced run starts, and writes
every span to ``PATH`` when the service shuts down (on SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

from perfbench.layers import LayerTracer


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, service_args = argv[:split], argv[split + 1:]
    if len(own) != 2 or own[0] != "--spans":
        raise SystemExit("usage: traced_server --spans PATH -- [args]")
    from repro.service.__main__ import main as service_main

    tracer = LayerTracer()
    tracer.install()
    try:
        return service_main(service_args)
    finally:
        tracer.uninstall()
        tracer.dump(Path(own[1]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
