"""``python -m cat0sigma``: the same command-line interface as ``cat0sigma``."""

from .cli import main

if __name__ == "__main__":
    main()
