"""Run the command-line interface: ``python -m dltsched COMMAND ...``."""

import sys

from .cli import main

sys.exit(main())
