"""Entry point of the repo benchmark (see cli.py for the modes).

Runs from a bare checkout: puts the repository root (for this package)
and ``src/`` (for ``repro``) on the path itself, so neither an install
nor ``PYTHONPATH`` is needed. Without ``src/`` it exits non-zero before
measuring anything.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parents[2]
    for path in (root / "src", root):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"benchmarks.perf: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    from benchmarks.perf.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
