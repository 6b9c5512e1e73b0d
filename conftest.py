"""Lets a plain ``pytest`` in a fresh checkout import ``zrbr`` from ``src``.

The checkout's ``src`` goes on the path only when ``zrbr`` cannot be imported
otherwise, so ``PYTHONPATH=<other checkout>/src pytest`` tests that other
checkout, and an installed package is tested as installed.
"""

import importlib.util
import os
import sys

if importlib.util.find_spec("zrbr") is None:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "src"))
