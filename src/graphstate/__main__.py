"""`python -m graphstate`: the same command line as the `graphstate` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
