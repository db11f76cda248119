"""Child-process launcher: ``python3 launch.py REPORT TRACE CLI-ARGS...``.

Imports ``qfocklab.cli`` from the checkout's ``src`` directory, stamps
the monotonic clock when the CLI is ready to parse its arguments, runs
``qfocklab.cli.main(CLI-ARGS)`` and writes a JSON report to REPORT:
``{"ready": <clock>}``, plus ``"layers"`` (see ``tracer.py``) when
TRACE is ``1``.  The clock is CLOCK_MONOTONIC, shared by all processes
on the host, so the parent can subtract its own spawn stamp.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, SRC)
    import qfocklab.cli

    ready = time.monotonic()
    if not os.path.abspath(qfocklab.cli.__file__).startswith(SRC + os.sep):
        print(f"qfocklab imported from {qfocklab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    report: dict = {"ready": ready}
    tracer = None
    if trace:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer().install()
    try:
        return qfocklab.cli.main(argv)
    finally:
        if tracer is not None:
            report["layers"] = tracer.summary()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
