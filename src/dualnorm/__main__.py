"""``python -m dualnorm``: the same command line as the ``dualnorm`` script."""

from .cli import main

if __name__ == "__main__":
    main()
