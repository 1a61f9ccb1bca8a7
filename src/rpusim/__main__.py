"""``python -m rpusim``: the ``rpusim`` command line."""

import sys

from .cli import main

sys.exit(main())
