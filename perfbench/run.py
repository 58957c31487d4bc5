"""Run the perclab benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that holds this file.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
