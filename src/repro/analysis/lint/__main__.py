"""``python -m repro.analysis.lint`` runs the determinism linter."""

import sys

from repro.analysis.lint.cli import main

if __name__ == "__main__":
    sys.exit(main())
