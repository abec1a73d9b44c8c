"""The benchmark's own tests import its modules as the scripts do:
from the perfbench directory."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
