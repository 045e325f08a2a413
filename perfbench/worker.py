"""A benchmark worker: one fresh interpreter for one pass of a workload.

It imports `csaclass.cli` from the checkout's `src/` and prints `ready`;
the time from spawn to that line is the set-up time.  Nothing but the
interpreter's own start-up runs before the import, and run.py starts the
interpreter with -S -E, so the set-up time is mostly the program's.  With
`--probe` it exits there; otherwise pass_runner.py runs the pass.

    python3 -S -E perfbench/worker.py --probe
    python3 -S -E perfbench/worker.py --workload sweep --seed 1 --seconds 5
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main() -> int:
    sys.path.insert(0, SRC)
    from csaclass import classnum, cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        print(f"error: csaclass imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    if sys.argv[1:] == ["--probe"]:
        return 0
    import pass_runner
    return pass_runner.main(sys.argv[1:], cli, classnum)


if __name__ == "__main__":
    sys.exit(main())
