"""Run the pipeline benchmark.

From the repository root, either form::

    PYTHONPATH=src python -m benchmarks.pipeline [--seed N] [--quick]
    python3 benchmarks/pipeline --workload wiki --seed 3 --seconds 8 --trace 0
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.pipeline.cli import main  # noqa: E402

sys.exit(main())
