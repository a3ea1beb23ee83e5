"""Run one command; print its wall time, peak RSS and exit code as JSON.

    python3 bench/launch.py OUT ERR -- command ...

Linux starts a child's ru_maxrss at the peak resident set of the address
space it was spawned from, so a child spawned by run.py, which holds
parsed scenarios and outputs, would report run.py's peak instead of its
own.  This launcher imports nothing heavy, so its own peak stays below
that of any polqg command it runs.  Wall time runs from spawn to exit.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print("usage: launch.py OUT ERR -- command ...", file=sys.stderr)
        return 2
    with open(argv[0], "w") as out, open(argv[1], "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv[3:], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                      "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
