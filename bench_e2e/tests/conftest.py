"""Self-tests of the benchmark: ``python -m pytest bench_e2e/tests -q``.

Tier-1 collects ``tests/`` only and never sees this directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
