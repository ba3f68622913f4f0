"""``python -m spanv``: the same command line as ``spanv``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
