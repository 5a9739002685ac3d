"""Import the package from the checkout's ``src`` and the harness modules
from ``perfbench``.  Run with ``python3 -m pytest perfbench/tests``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]
