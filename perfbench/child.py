"""Run one chargecast CLI command in this fresh process and time it.

Usage: python3 perfbench/child.py TIMING_JSON [CLI ARGS...]

Does what ``python -m chargecast.cli CLI ARGS...`` does, and also writes to
TIMING_JSON the monotonic-clock instants at which ``chargecast.cli`` was
imported (``ready``) and at which ``cli.main`` returned (``done``), and the
process's CPU time (user + system, all threads) at both points
(``ready_cpu``, ``done_cpu``). CPU time counts from the start of this
process. The parent compares ``ready`` with the instant it spawned this
process to get the wall-clock set-up time. With no CLI arguments, the
process only imports. ``time.perf_counter`` is CLOCK_MONOTONIC on Linux,
shared by all processes.
"""

import json
import sys
import time


def main() -> int:
    timing_path, argv = sys.argv[1], sys.argv[2:]
    from chargecast import cli

    ready, ready_cpu = time.perf_counter(), time.process_time()
    code = cli.main(argv) if argv else 0
    done, done_cpu = time.perf_counter(), time.process_time()
    with open(timing_path, "w") as fh:
        json.dump({"ready": ready, "done": done, "ready_cpu": ready_cpu,
                   "done_cpu": done_cpu, "exit_code": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
