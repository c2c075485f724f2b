"""``python -m usvcg``: the command-line driver (``usvcg.cli``)."""

from .cli import main

raise SystemExit(main())
