"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python layerbench/launcher.py SPANS_OUT serve --port 0 [serve flags]

The wrappers from ``spans.py`` are installed before the server starts;
spans stay in memory while it runs and are written to SPANS_OUT as JSON
once ``repro serve`` returns (it drains and exits 0 on SIGTERM).
``repro`` must be importable (the benchmark sets ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list) -> int:
    out, serve_args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    recorder = spans.Recorder(require_parent=False)
    restore = spans.install(recorder)
    try:
        return repro_main(serve_args)
    finally:
        restore()
        with open(out, "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
