"""Run the command-line front end as ``python -m cbayes``."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="cbayes")
