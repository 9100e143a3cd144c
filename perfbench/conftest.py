import sys
from pathlib import Path

# the benchmark's tests import dukptlab from this checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
