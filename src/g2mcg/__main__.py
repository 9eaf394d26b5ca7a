"""``python -m g2mcg``: the command line interface of ``g2mcg.cli``."""

import sys

from .cli import main

sys.exit(main())
