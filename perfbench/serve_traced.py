"""The traced launcher for the server workloads.

    python perfbench/serve_traced.py SPANS.json --socket PATH

Installs the timing wrappers (``probes.py``), then runs
``repro.server`` exactly as ``python -m repro.server --socket PATH``
would.  When the server exits (SIGTERM drains it), the spans it kept in
memory are written to SPANS.json.
"""

import json
import sys

import probes


def main(argv):
    spans_path, server_args = argv[0], argv[1:]
    recorder = probes.install()
    from repro.server.__main__ import main as serve

    code = serve(server_args)
    with open(spans_path, "w") as handle:
        json.dump(recorder.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
