"""One set-up of a workload in a fresh process, as a user's run starts.

Imports gpcbf, builds and validates the workload's config and runs
``build_scenario`` (plant, barrier designs, LQR solve), then prints
``ready``.  ``run.py`` times the span from starting this process to
reading that line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gpcbf  # noqa: E402,F401
from gpcbf.experiment import build_scenario  # noqa: E402

import workloads  # noqa: E402

build_scenario(workloads.make_config(sys.argv[1], int(sys.argv[2])))
print("ready", flush=True)
