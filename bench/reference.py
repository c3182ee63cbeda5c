"""A fixed reference program whose wall time measures the machine's speed.

The end-to-end run spawns this script before the first pipeline and after
every pipeline, as a child process started the same way as ``firmprod``, and
divides each pipeline's wall time by the mean of the two reference times
around it. On a shared host whose speed for the same code changes by up to
1.8x for tens of seconds at a time, that ratio stays steady where the wall
time does not. The work mixes what the workloads spend their time on:
starting Python and importing numpy, a pure-Python loop over numpy scalars
(the simulator's donor and recipient search), a CSV round trip through
``float`` and ``repr`` (parsing and table emission) and vectorised numpy
(measures and fits). It imports nothing of ``firmprod``, so a change to the
program never changes it. It prints a checksum of its results, which must be
the same on every run.

Usage: ``python3 bench/reference.py``
"""

from __future__ import annotations

import csv
import io
import sys

import numpy as np

#: Iteration counts, chosen so that each part takes about 0.15 s on a
#: 2-vCPU x86-64 VM and the whole program about 0.55 s with start-up.
SEARCH_ROUNDS = 500
CSV_ROUNDS = 3
VECTOR_ROUNDS = 30
FIRMS = 350
CSV_ROWS = 1600
VECTOR_LEN = 200_000


def search(rng: np.random.Generator) -> float:
    ids = [f"f{i:05d}" for i in range(FIRMS)]
    mp = rng.random(FIRMS)
    total = 0
    for _ in range(SEARCH_ROUNDS):
        total += min(range(FIRMS), key=lambda i: (mp[i], ids[i]))
        total += min(range(FIRMS), key=lambda i: (-mp[i], ids[i]))
    return float(total)


def csv_round_trip(rng: np.random.Generator) -> float:
    text = "\n".join(
        ",".join([f"F{i}", "2001", "JP", *(repr(float(x)) for x in row)])
        for i, row in enumerate(rng.random((CSV_ROWS, 8)))
    )
    total = 0.0
    for _ in range(CSV_ROUNDS):
        records = [{"id": row[0], "year": int(row[1]), "country": row[2],
                    "values": [float(x) for x in row[3:]]}
                   for row in csv.reader(io.StringIO(text))]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for r in records:
            writer.writerow([r["id"], r["year"], r["country"], *map(repr, r["values"])])
        total += len(out.getvalue())
    return total


def vector(rng: np.random.Generator) -> float:
    x = rng.random(VECTOR_LEN)
    total = 0.0
    for _ in range(VECTOR_ROUNDS):
        y = np.log(x + 1.0)
        total += float(np.cumsum(np.sort(y))[-1] + np.exp(-y).sum())
    return total


def main() -> int:
    rng = np.random.default_rng(0)
    print(repr(search(rng) + csv_round_trip(rng) + vector(rng)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
