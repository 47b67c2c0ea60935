"""``repro-fbf serve`` with the benchmark's layer wrappers installed.

    python perfbench/serve_traced.py SPANS.json serve --checkpoint ...

Everything after the spans path is handed to ``repro.cli.main`` exactly
as the ``repro-fbf`` console script would.  When the server exits, the
aggregated spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    common.require_program()
    spans = tracer.Tracer()
    tracer.install(spans)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        common.write_json(out, spans.dump())


if __name__ == "__main__":
    sys.exit(main())
