"""Start the ``repro`` CLI with the benchmark's span wrappers installed.

    python3 perfbench/serve_launcher.py SPANS_OUT serve CONFIG [options]

Wraps Algorithm 1 and ``AdmissionService.submit`` (see ``layers.py``), runs
``repro.__main__.main`` with the remaining arguments, and writes the spans
to ``SPANS_OUT`` when the CLI returns.
"""

from __future__ import annotations

import sys

from spans import Recorder


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    with recorder.span("import"):
        import repro.__main__ as cli
        import repro.serve  # noqa: F401  (what ``repro serve`` imports)
    from layers import install_serve

    install_serve(recorder)
    try:
        return cli.main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
