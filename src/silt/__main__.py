"""Command line entry point: ``python -m silt`` runs ``silt.cli.main``."""

from silt.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
