"""Reference probe: a fixed pure-Python job that does not use degenscope.

    python3 bench/reference.py

The benchmark runs it in a fresh process next to every timed command and
uses the median of its wall times as the machine's speed during the run
(see bench/README.md, "Machine speed").  It imports what the CLI's own
start-up imports and then does the same kinds of work as the program
(integer arithmetic, gcd, tuples, dicts, Fractions, JSON), so a slow spell
of the host slows it as much as it slows the CLI.  It prints one checksum,
which the benchmark checks.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import json
from fractions import Fraction
from math import gcd

ROUNDS = 10000


def job() -> str:
    table: dict[tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(1, ROUNDS + 1):
        for j in range(1, 9):
            key = (i % 97, (i * j) % 89)
            table[key] = table.get(key, 0) + gcd(i, j * 6)
        total += Fraction(i % 13 + 1, i % 7 + 2)
    rows = [[a, b, c] for (a, b), c in sorted(table.items())]
    return f"{len(json.dumps(rows))} {sum(c for _, _, c in rows)} {total}"


if __name__ == "__main__":
    print(job())
