"""One repetition: a fresh process that runs ``partialfree.cli.main`` once.

Usage: child.py SPANS_PATH -- CLI_ARGS...   (SPANS_PATH "-" runs untraced)

Prints one JSON line: the exit code, wall and CPU seconds of ``main`` alone
(the import is ``setup_s``, measured separately), the process's peak RSS and,
when traced, the per-layer summary.  The spans go to SPANS_PATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SPANS_PATH -- CLI_ARGS...")
    from partialfree import cli

    tracer = None
    run = cli.main
    if spans_path != "-":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        run = tracer.wrap("cli.main", cli.main)

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = run(argv)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "code": code,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(spans_path)
        result["layers"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
