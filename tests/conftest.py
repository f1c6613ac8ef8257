"""Test-suite configuration: one deterministic hypothesis profile.

Derandomized examples make every run of the suite repeatable, no example
database is kept, and no deadline fails a test on a slow machine.
Hypothesis still caches source constants and unicode tables; they go to
the system temp directory, not into the checkout, unless
HYPOTHESIS_STORAGE_DIRECTORY says otherwise.
"""

import os
import tempfile

from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(),
                                   "prefixnormal-hypothesis"))
settings.register_profile("repeatable", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("repeatable")
