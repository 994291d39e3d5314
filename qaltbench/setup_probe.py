"""Time-to-ready probe for ``setup_s``: a fresh interpreter runs the
benchmark's set-up for one workload and prints ``ready``.

    python3 qaltbench/setup_probe.py q_alt3
"""

import sys

import run

run.setup(sys.argv[1])
print("ready", flush=True)
