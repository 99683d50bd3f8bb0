"""Run one ``decomp-embed`` invocation with the benchmark's spans installed.

    PYTHONPATH=src python3 perfbench/cli_child.py decide --family ...

stdout and the exit code are those of the CLI.  After the CLI returns, one
extra stderr line ``PERFBENCH_TRACE {...}`` carries the span totals and the
spans, which the traced ``cli_cold`` run collects.
"""

import json
import sys

from decomp_embed import cli
from tracer import TRACE_MARK, Instrumentation, Recorder


def main() -> int:
    recorder = Recorder()
    Instrumentation(recorder).install()
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps({"raw": recorder.raw(),
                                              "spans": recorder.spans}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
