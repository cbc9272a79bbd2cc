"""Patches that send every update-kernel call to one count back-end, and
that cut every deletion rescan into chunks of one hit.

The kernels' count front picks the step table or the search by a
size rule (``sketch._step_windows``). Tests run each rule body under both:
"table" lifts both limits of the rule, "search" sets a row minimum no matrix
reaches.

The delete kernel's rescan gathers the hit rows' supports in chunks of at
most ``sketch._RESCAN_BLOCK_ENTRIES`` entries, or of one hit whose support
alone is larger. Test classes that run at the default budget, where small
cases fit one chunk, run again under the class-scoped fixture
``one_entry_rescan_chunks``, where every hit with a support is a chunk.
"""

import sys
from unittest.mock import patch

import pytest

from dynsketch import sketch

BACK_ENDS = ("search", "table")


def count_back_end(name: str):
    """A context manager under which every kernel call takes back-end ``name``."""
    if name == "table":
        return patch.multiple(sketch, _TABLE_MIN_ROWS=0, _TABLE_ENTRIES_PER_SLOT=float("inf"))
    if name == "search":
        return patch.object(sketch, "_TABLE_MIN_ROWS", sys.maxsize)
    raise ValueError(f"no count back-end {name!r}")


def rescan_budget(entries: int):
    """A context manager under which a deletion rescan gathers at most
    ``entries`` support entries per chunk (or one hit)."""
    return patch.object(sketch, "_RESCAN_BLOCK_ENTRIES", entries)


@pytest.fixture(scope="class")
def one_entry_rescan_chunks():
    """The rescan budget at 1 entry for a whole test class."""
    with rescan_budget(1):
        yield
