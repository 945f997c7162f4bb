"""Test set-up: import the program from this checkout's ``src`` and the
benchmark modules from this directory, as ``run.py`` does."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
