import os
import sys

# The benchmark's modules import each other as top-level scripts do.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
