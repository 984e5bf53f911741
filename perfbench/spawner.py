"""Runs CLI commands one at a time for a workload child.

A process's peak-RSS figure includes the memory of the process that spawned
it (the kernel carries the parent's high-water mark across fork and exec).
The workload child starts this helper while it is still small, and sends it
the CLI commands, so `RUSAGE_CHILDREN` here measures the CLI processes alone.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "stdin": path or null, "stdout": path}
and one JSON reply per line on stdout,
    {"rc": int, "stderr": str, "maxrss_kb": int}
where maxrss_kb is the largest peak RSS of any command run so far.
Usage: python3 spawner.py <address-space cap in bytes>
"""

import json
import resource
import subprocess
import sys


def main() -> None:
    cap = int(sys.argv[1])
    # Inherited by every command started below.
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    for line in sys.stdin:
        req = json.loads(line)
        src = open(req["stdin"], "rb") if req["stdin"] else subprocess.DEVNULL
        try:
            with open(req["stdout"], "wb") as out:
                proc = subprocess.run(req["argv"], stdin=src, stdout=out, stderr=subprocess.PIPE)
        finally:
            if req["stdin"]:
                src.close()
        maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        reply = {"rc": proc.returncode, "stderr": proc.stderr.decode(errors="replace")[-2000:], "maxrss_kb": maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
