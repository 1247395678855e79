"""Record the golden exit code and stdout sha256 of every benchmark
invocation (full and smoke panels) into goldens.json.

usage: python3 perfbench/record_goldens.py

Run it only on a commit whose outputs are known to be right; the
benchmark counts any later difference as a failed invocation.
"""

import hashlib
import json
import sys

from run import BENCH, PANELS, RUN_LIMIT_S, SMOKE_PANELS, check_program, cli_argv, key_of, run_child


def main() -> int:
    check_program()
    goldens = {}
    for panels in (PANELS, SMOKE_PANELS):
        for panel in panels.values():
            for argv in panel:
                outcome = run_child(cli_argv(argv), RUN_LIMIT_S)
                if outcome["timed_out"]:
                    raise SystemExit("%s timed out" % key_of(argv))
                goldens[key_of(argv)] = {
                    "exit": outcome["exit"],
                    "sha256": hashlib.sha256(outcome["stdout"]).hexdigest(),
                }
                print(key_of(argv), goldens[key_of(argv)], "%.2fs" % outcome["wall_s"])
    (BENCH / "goldens.json").write_text(json.dumps(goldens, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
