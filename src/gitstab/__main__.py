"""``python -m gitstab``: the same command line as the ``gitstab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
