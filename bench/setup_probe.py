"""One set-up, timed from outside by bench/run.py: a fresh interpreter
imports slve (numpy, scipy), generates a workload's inputs from its seed and
parses every generated config.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import slve  # noqa: E402,F401

from workloads import make_inputs, parse_all  # noqa: E402

if __name__ == "__main__":
    parse_all(make_inputs(sys.argv[1], int(sys.argv[2])))
    print("ok")
