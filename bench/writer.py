"""One writer process of the ``save_cell_2w_us`` probe.

    python3 bench/writer.py ROOT PREFIX COUNT

opens the store backend at ROOT, prints ``ready``, waits for a line on
standard input (so that two writers start writing together), writes
COUNT cell records under keys that begin with PREFIX, and prints
``[seconds, busy]``: its wall time and how many writes hit a locked
database.  A plain child process, started and waited for by
``layers.two_writers``: a ``multiprocessing`` spawn pool would bring a
resource-tracker process that outlives the benchmark by a moment.
"""

from __future__ import annotations

import json
import sqlite3
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.backends import backend_for_path  # noqa: E402


def main(root: str, prefix: str, count: int) -> None:
    backend = backend_for_path(root)
    record = {"schema": 1, "metrics": {"trials": 3, "mean_rounds": 7.0},
              "row": {"scenario": "probe", "n": 64}}
    print("ready", flush=True)
    sys.stdin.readline()
    busy = 0
    start = time.perf_counter()
    for index in range(count):
        try:
            backend.save_cell(f"{prefix}{index:060d}", record)
        except sqlite3.OperationalError:
            busy += 1
    seconds = time.perf_counter() - start
    backend.close()
    print(json.dumps([seconds, busy]), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
