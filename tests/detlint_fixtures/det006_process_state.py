"""Fixture: one DET006 violation (a process-wide id counter)."""

import itertools

_widget_counter = itertools.count()  # SEED:DET006


class Widget:
    def __init__(self) -> None:
        self.uid = next(_widget_counter)
        self._seq = itertools.count()   # per-instance: fine
