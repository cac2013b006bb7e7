"""``python -m quantdoa``: the command-line harness of :mod:`quantdoa.cli`."""
from .cli import main

if __name__ == "__main__":
    main()
