"""``python -m benchmarks.perf`` — same entry as ``run.py``."""

import sys

from benchmarks.perf.run import main

sys.exit(main())
