"""`python -m condctc`: the `condctc` command (see `condctc.cli`)."""

import sys

from .cli import main

sys.exit(main())
