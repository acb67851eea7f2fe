"""``python -m hkc``: the ``hkc`` command line."""

from .harness import main

raise SystemExit(main())
