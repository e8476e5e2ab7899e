"""Makes the benchmark's modules and the engine importable, the way
``run.py`` does for itself."""

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(PERF)
for path in (os.path.join(REPO, "src"), PERF):
    if path not in sys.path:
        sys.path.insert(0, path)
