"""Run one traced `gencactus` command: import gencactus.cli, install the
tracer, call gencactus.cli.run(argv), write the trace, exit with its code.

Usage: launcher.py --query N --trace-out FILE -- <gencactus arguments>
"""

import io
import json
import sys
import time

start = time.perf_counter()
import gencactus.cli  # noqa: E402  (timed: a fresh import is cli.import_s)

import_s = time.perf_counter() - start

import tracer as tracing  # noqa: E402


def main():
    split = sys.argv.index("--")
    opts = dict(zip(sys.argv[1:split:2], sys.argv[2:split:2]))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.query = int(opts["--query"])
    begin = time.perf_counter()
    code = gencactus.cli.run(sys.argv[split + 1:])
    run_s = time.perf_counter() - begin
    tracer.active = False
    spans = io.StringIO()
    tracer.write_spans(spans)
    with open(opts["--trace-out"], "w") as fh:
        json.dump({"snapshot": tracer.snapshot(), "import_s": import_s, "run_s": run_s,
                   "spans": spans.getvalue()}, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
