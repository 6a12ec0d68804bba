import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# sandalc from this checkout, and the independent oracles of its test suite.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
