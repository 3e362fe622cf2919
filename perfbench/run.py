"""Entry point named by ``BENCHMARK.json``:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload and prints, as the last line of standard output, the JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.cli import contract_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(contract_main())
