"""Run ``threshold_lab.cli.main`` and report its import and run time on stderr.

Used in place of ``python -m threshold_lab.cli`` by the CLI parity check.
Standard output and the exit code are the CLI's own; the timings go to the
last line of standard error as ``{"perfbench": {...}}``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import threshold_lab.cli as cli  # noqa: E402

t1 = time.perf_counter()
try:
    code = cli.main(sys.argv[1:])
finally:
    t2 = time.perf_counter()
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps({"perfbench": {"import_s": t1 - t0, "main_s": t2 - t1}}) + "\n")
sys.exit(code)
