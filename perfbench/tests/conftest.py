import sys
from pathlib import Path

# The benchmark's modules import each other by name, as when run as a script.
_ROOT = Path(__file__).resolve().parents[2]
for path in (_ROOT / "perfbench", _ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
