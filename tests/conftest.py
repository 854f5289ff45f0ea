"""Run the suite from a checkout without installing the package.

pyproject's ``pythonpath`` puts ``src`` on the path of the test process; the
same directory goes on ``PYTHONPATH`` for the interpreters that tests start
(``python -m bethegauge.cli ...``).
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
