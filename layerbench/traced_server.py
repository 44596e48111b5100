"""``python -m layerbench.traced_server serve ...``: the same program as
``python -m repro serve ...`` with the layer probes installed from
outside, and the span dump printed as one extra JSON line at exit."""

from __future__ import annotations

import json
import runpy
import sys

from .tracing import SERVICE_PROBES, UDP_SERVER_PROBES, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install(SERVICE_PROBES)
    tracer.install(UDP_SERVER_PROBES)
    sys.argv = ["repro", *sys.argv[1:]]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exit_request:
        code = exit_request.code or 0
    print(json.dumps(tracer.dump(), separators=(",", ":")), flush=True)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
