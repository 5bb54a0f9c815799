"""Make ``perfkit``, ``run`` and the program under test importable."""

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parents[1]
ROOT = PERF_DIR.parent

for path in (ROOT / "src", PERF_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
