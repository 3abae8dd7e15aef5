"""One set-up, as a fresh process: import ``credbond.cli`` and build a workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

``run.py`` times this whole process, interpreter start-up included; that is
the ``setup_s`` metric.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import credbond.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
