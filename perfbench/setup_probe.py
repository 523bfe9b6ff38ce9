"""Set-up probe: a fresh interpreter imports the CLI and plans one config.

    python3 perfbench/setup_probe.py CONFIG.json

It does nothing else, so its wall time is the fixed cost every patrolsim
command pays before its first month-run.
"""

import sys

from patrolsim.cli import build_plan, load_config

build_plan(load_config(sys.argv[1]))
