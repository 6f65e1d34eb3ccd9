"""Wall-clock benchmark of the Slider engine: see README.md in this directory.

Importing the package puts the checkout's ``src`` directory first on
``sys.path``, so ``repro`` always resolves to the source next to the
benchmark, never to an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Records, span dumps and scratch checkpoints go here (git-ignored).
OUT = Path(__file__).resolve().parent / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
