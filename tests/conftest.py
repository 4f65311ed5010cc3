"""Let the CLI subprocesses of the suite import the package from ``src``.

``pythonpath`` in pyproject.toml puts ``src`` on the path of the test
process only; the tests that run ``python -m casimir_bvl.cli`` need it in
the environment they pass on.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p])
