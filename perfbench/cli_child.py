"""Traced stand-in for the speclat console script.

Usage: python3 perfbench/cli_child.py SUMMARY.json CLI-ARGS...

Imports speclat.cli (timing the import), installs the span tracer, runs
the command through speclat.cli.main and writes the trace summary to
SUMMARY.json. Exits with the command's exit code.
"""

import json
import sys
import time


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    # timed first, so that numpy's import counts as the console script's
    start = time.perf_counter()
    import speclat.cli

    import_s = time.perf_counter() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = speclat.cli.main(argv)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["counters"]["cli.import_s"] = [import_s, 1]
    run = [
        tracer.end[i] - tracer.start[i]
        for i in range(len(tracer.start))
        if tracer.names[tracer.name_id[i]] == "cli.run_command"
    ]
    summary["counters"]["cli.run_command_s"] = [sum(run), len(run)]
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
