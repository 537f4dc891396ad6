"""``python -m benchmarks.e2e``: the same command as ``run.py``."""

from .run import main

raise SystemExit(main())
