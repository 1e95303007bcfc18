"""``python -m maxent_marl``: the ``maxent-marl`` command without installing it."""

from .cli import console_main

console_main()
