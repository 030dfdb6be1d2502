"""Unit tests of the benchmark's pure helpers.

Outside tier-1's ``testpaths``; run them with

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if E2E not in sys.path:
    sys.path.insert(0, E2E)
