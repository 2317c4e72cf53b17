"""Makes the tests' reference helpers (``tests/store/answer_parity.py``)
importable from every test directory."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "store"))
