"""Patches that send every update-kernel call to one count back-end.

The kernels' count front picks the step table or the search by a
size rule (``sketch._step_windows``). Tests run each rule body under both:
"table" lifts both limits of the rule, "search" sets a row minimum no matrix
reaches.
"""

import sys
from unittest.mock import patch

from dynsketch import sketch

BACK_ENDS = ("search", "table")


def count_back_end(name: str):
    """A context manager under which every kernel call takes back-end ``name``."""
    if name == "table":
        return patch.multiple(sketch, _TABLE_MIN_ROWS=0, _TABLE_ENTRIES_PER_SLOT=float("inf"))
    if name == "search":
        return patch.object(sketch, "_TABLE_MIN_ROWS", sys.maxsize)
    raise ValueError(f"no count back-end {name!r}")
