"""Test-suite configuration: one deterministic hypothesis profile, and a
new process's packed-work ledger for every test.

Derandomized examples make every run of the suite repeatable, no example
database is kept, and no deadline fails a test on a slow machine.
Hypothesis still caches source constants and unicode tables; they go to
the system temp directory, not into the checkout, unless
HYPOTHESIS_STORAGE_DIRECTORY says otherwise.
"""

import os
import tempfile

import pytest
from hypothesis import settings

from prefixnormal import profiles

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(),
                                   "prefixnormal-hypothesis"))
settings.register_profile("repeatable", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("repeatable")


class Ledger:
    """The packed-work ledger of ``profiles``, which routes each row of
    the window kernels packed or to numpy; restored after the test."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.set(0)

    def set(self, spent=0):
        """Set the ledger to ``spent`` fields charged (0: fresh)."""
        self._monkeypatch.setattr(profiles, "_packed_spent", spent)

    def close(self):
        """Close the ledger, as the first numpy slide does."""
        self.set(profiles._PACKED_FIELDS)

    @property
    def balance(self):
        """The fields charged so far."""
        return profiles._packed_spent

    @property
    def closed(self):
        """Whether the ledger is closed."""
        return self.balance == profiles._PACKED_FIELDS


@pytest.fixture(autouse=True)
def ledger(monkeypatch):
    """Every test starts on a fresh ledger, as a new process does; a test
    that needs it spent or closed asks for this fixture and sets it."""
    return Ledger(monkeypatch)
