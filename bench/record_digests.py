#!/usr/bin/env python3
"""Record bench/digests.json: the sha256 of every output the benchmark can
produce, taken from the current sources.

    python3 bench/record_digests.py

The recorded bytes are the project's output contract, so run this only at
a commit whose output is known to be right (the digests committed with
the benchmark come from the commit that introduced it).  A change that
alters output bytes on purpose re-records them and says so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import (
    DIGESTS_FILE,
    OUT_DIR,
    SETUP_ARGV,
    WORKLOADS,
    Command,
    check_setup,
    large_germ_commands,
    run_cli,
    scan_rows,
    sha256,
)


def main() -> int:
    commands = [Command(SETUP_ARGV, check_setup)]
    for name in ("scan_box", "scan_parallel", "density_census"):
        for jobs in (1, 2):
            commands += WORKLOADS[name].build(0, jobs)
    for order in range(6):  # every weight order of every plane
        commands += large_germ_commands(0, perms=(order, order))

    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    digests: dict[str, dict[str, str]] = {}
    projections = set()
    try:
        for cmd in commands:
            if cmd.key in digests:
                continue
            run = run_cli(cmd, tmp)
            if run.exit_code != 0:
                print(f"{cmd.key}: exit code {run.exit_code}", file=sys.stderr)
                return 1
            body = run.stdout if cmd.canon is None else cmd.canon(run.stdout)[0]
            digests[cmd.key] = {"stdout": sha256(body)}
            if cmd.out is not None:
                digests[cmd.key]["out"] = sha256(run.out)
                rows = scan_rows(run.out, "--csv" in cmd.argv)
                projections.add(sha256("\n".join(",".join(r) for r in rows).encode()))
            print(f"recorded {cmd.key}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(projections) != 1:
        print("JSON and CSV scan records disagree on their common fields", file=sys.stderr)
        return 1
    digests["scan-projection"] = {"stdout": projections.pop()}
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
