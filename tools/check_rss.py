#!/usr/bin/env python3
"""Run a command and fail when its peak resident set exceeds a budget.

    python3 tools/check_rss.py --max-mb 80 -- ./build/src/tools/necpt-run \
        --config "Nested ECPTs" --app GUPS --measure 1 --warmup 0 --quiet

The peak is the child's ru_maxrss (Linux reports KiB). Prints one line
with the peak and the budget. Exits 1 when the command fails or the
peak is over the budget, 0 otherwise.
"""

import argparse
import resource
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-mb", type=float, required=True,
                    help="peak RSS budget in MiB")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="command to run, after --")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    code = subprocess.run(cmd).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (budget {args.max_mb:.1f} MB)")
    if code != 0:
        print(f"command exited {code}", file=sys.stderr)
        return 1
    return 0 if peak_mb <= args.max_mb else 1


if __name__ == "__main__":
    sys.exit(main())
