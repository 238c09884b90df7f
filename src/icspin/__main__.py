"""``python -m icspin``: the command-line front end."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
