"""perfbench: the closed-loop service benchmark.

Run from the repository root with ``python3 -m perfbench``; see
``perfbench/README.md``.  The benchmark imports the optimizer from the
repository's own ``src/`` tree, so it measures the tree it sits in.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(ROOT, "src")

if not os.path.isdir(os.path.join(_SRC, "repro")):
    raise ImportError(f"perfbench measures the sources in {_SRC}, which are missing")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def load_benchmark() -> Dict[str, object]:
    """The checked-in ``BENCHMARK.json`` (metric names, units, bounds)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)
