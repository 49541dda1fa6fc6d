"""Start the scoring server with the benchmark's wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT serve MODEL_DIR ...``

Installs the wrappers from :mod:`perfbench.layers`, then runs
``repro.cli.main(["serve", ...])`` unchanged.  On SIGINT the server shuts
down as usual and the recorded spans are written to ``SPANS_OUT``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, spans

    import repro.cli

    recorder = spans.Recorder()
    spans.install(recorder, layers.TARGETS)
    spans.track_connections(recorder)
    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
