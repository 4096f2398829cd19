"""``python -m captionkit``: the same command-line interface as ``captionkit``."""

from .cli import main

if __name__ == "__main__":
    main()
