"""`python -m sandalc ...` runs the `sandalc` command."""

from .cli import main

if __name__ == "__main__":
    main()
