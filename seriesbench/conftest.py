"""Make the mipseries sources importable for the benchmark's own tests
(run them with `python3 -m pytest seriesbench`)."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
